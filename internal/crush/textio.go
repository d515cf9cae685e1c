package crush

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The text form of a CRUSH map, in the spirit of `crushtool --decompile`:
// tunables, devices, types, buckets with named items and decimal weights,
// and rules. It is output only: a map is built in code (BuildCluster,
// FlatCluster), and nothing parses the text back.

// EncodeText writes the map in the text format.
func (m *Map) EncodeText(w io.Writer) error {
	bw := bufio.NewWriter(w)

	fmt.Fprintf(bw, "# begin crush map\n")
	fmt.Fprintf(bw, "tunable choose_total_tries %d\n", chooseTotalTries)
	fmt.Fprintf(bw, "tunable choose_local_tries 0\n")
	fmt.Fprintf(bw, "tunable chooseleaf_vary_r 1\n")
	fmt.Fprintf(bw, "tunable chooseleaf_stable 1\n")

	fmt.Fprintf(bw, "\n# devices\n")
	for d := 0; d < m.maxDev; d++ {
		fmt.Fprintf(bw, "device %d osd.%d\n", d, d)
	}

	fmt.Fprintf(bw, "\n# types\n")
	for _, id := range m.Types() {
		fmt.Fprintf(bw, "type %d %s\n", id, m.TypeName(id))
	}

	fmt.Fprintf(bw, "\n# buckets\n")
	// Children before parents, as crushtool prints them.
	for _, id := range m.bucketsBottomUp() {
		b := m.buckets[id]
		fmt.Fprintf(bw, "%s %s {\n", m.TypeName(b.Type), m.BucketName(id))
		fmt.Fprintf(bw, "\tid %d\n", id)
		fmt.Fprintf(bw, "\talg %s\n", b.Alg)
		for i, it := range b.Items {
			name := ""
			if it >= 0 {
				name = fmt.Sprintf("osd.%d", it)
			} else {
				name = m.BucketName(it)
			}
			fmt.Fprintf(bw, "\titem %s weight %.3f\n", name,
				float64(b.ItemWeight(i))/float64(WeightOne))
		}
		fmt.Fprintf(bw, "}\n")
	}

	fmt.Fprintf(bw, "\n# rules\n")
	for _, name := range m.Rules() {
		r := m.rules[name]
		fmt.Fprintf(bw, "rule %s {\n", name)
		for _, st := range r.Steps {
			switch st.Op {
			case OpTake:
				fmt.Fprintf(bw, "\tstep take %s\n", m.BucketName(st.Arg1))
			case OpChooseFirstN:
				fmt.Fprintf(bw, "\tstep choose firstn %d type %s\n", st.Arg1, m.TypeName(st.Arg2))
			case OpChooseIndep:
				fmt.Fprintf(bw, "\tstep choose indep %d type %s\n", st.Arg1, m.TypeName(st.Arg2))
			case OpChooseleafFirstN:
				fmt.Fprintf(bw, "\tstep chooseleaf firstn %d type %s\n", st.Arg1, m.TypeName(st.Arg2))
			case OpChooseleafIndep:
				fmt.Fprintf(bw, "\tstep chooseleaf indep %d type %s\n", st.Arg1, m.TypeName(st.Arg2))
			case OpEmit:
				fmt.Fprintf(bw, "\tstep emit\n")
			}
		}
		fmt.Fprintf(bw, "}\n")
	}
	fmt.Fprintf(bw, "# end crush map\n")
	return bw.Flush()
}

// EncodeTextString renders the map to a string.
func (m *Map) EncodeTextString() string {
	var sb strings.Builder
	m.EncodeText(&sb)
	return sb.String()
}

// bucketsBottomUp orders bucket ids children-first.
func (m *Map) bucketsBottomUp() []int {
	visited := make(map[int]bool)
	var order []int
	var visit func(id int)
	visit = func(id int) {
		if visited[id] {
			return
		}
		visited[id] = true
		b := m.buckets[id]
		if b == nil {
			return
		}
		for _, it := range b.Items {
			if it < 0 {
				visit(it)
			}
		}
		order = append(order, id)
	}
	ids := m.Buckets()
	sort.Ints(ids) // deterministic entry order
	for _, id := range ids {
		visit(id)
	}
	return order
}
