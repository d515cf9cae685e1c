package crush

import (
	"fmt"
	"sort"
)

// Special item values produced by indep selection.
const (
	// ItemNone marks a rank for which no device could be found.
	ItemNone = -0x7fffffff
	// itemUndef is used internally while an indep rank is unfilled.
	itemUndef = -0x7ffffffe
)

// chooseTotalTries bounds the number of full descent retries per replica
// (Ceph's choose_total_tries). The retry rules are those of the modern
// tunables profile: no local retries in the same bucket on collision, and
// the recursive leaf descent varies its r by the parent's attempt
// (chooseleaf_vary_r).
const chooseTotalTries = 50

// Map is a CRUSH cluster map: a forest of weighted buckets over devices,
// plus named placement rules and type names. A map is fixed once built:
// AddBucket and AddRule assemble it, and nothing edits it after its first
// Select, so equal inputs always select equal placements. Placement moves
// only through the reweight table a caller passes to Select.
type Map struct {
	buckets map[int]*Bucket // by negative id
	maxDev  int             // one past the largest device id seen
	rules   map[string]*Rule
	types   map[int]string // type id -> name
	names   map[int]string // bucket id -> name

	nextBucketID int // most negative assigned so far
}

// NewMap returns an empty map.
func NewMap() *Map {
	return &Map{
		buckets: make(map[int]*Bucket),
		rules:   make(map[string]*Rule),
		types:   map[int]string{0: "osd"},
		names:   make(map[int]string),
	}
}

// DefineType names a hierarchy level (e.g. 1 = "host", 2 = "rack").
// Type 0 is always "osd" (a device).
func (m *Map) DefineType(id int, name string) {
	m.types[id] = name
}

// TypeName returns the name for a type id.
func (m *Map) TypeName(id int) string {
	if n, ok := m.types[id]; ok {
		return n
	}
	return fmt.Sprintf("type%d", id)
}

// AddBucket inserts a bucket built elsewhere. Its ID must be negative and
// unused.
func (m *Map) AddBucket(b *Bucket) error {
	if b.ID >= 0 {
		return fmt.Errorf("crush: bucket id %d not negative", b.ID)
	}
	if _, dup := m.buckets[b.ID]; dup {
		return fmt.Errorf("crush: duplicate bucket id %d", b.ID)
	}
	m.buckets[b.ID] = b
	if b.ID < m.nextBucketID {
		m.nextBucketID = b.ID
	}
	for _, it := range b.Items {
		if it >= m.maxDev {
			m.maxDev = it + 1
		}
	}
	return nil
}

// NewBucketID returns the next unused negative bucket id.
func (m *Map) NewBucketID() int {
	m.nextBucketID--
	return m.nextBucketID
}

// Bucket returns the bucket with the given (negative) id, or nil.
func (m *Map) Bucket(id int) *Bucket { return m.buckets[id] }

// SetBucketName names a bucket for the text format and tooling.
func (m *Map) SetBucketName(id int, name string) { m.names[id] = name }

// BucketName returns a bucket's name, synthesising one if unset.
func (m *Map) BucketName(id int) string {
	if n, ok := m.names[id]; ok {
		return n
	}
	return fmt.Sprintf("bucket%d", -id)
}

// Rules returns the rule names, sorted.
func (m *Map) Rules() []string {
	names := make([]string, 0, len(m.rules))
	for n := range m.rules {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Types returns the defined type ids, sorted ascending.
func (m *Map) Types() []int {
	ids := make([]int, 0, len(m.types))
	for id := range m.types {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Buckets returns all bucket ids in deterministic (descending id) order.
func (m *Map) Buckets() []int {
	ids := make([]int, 0, len(m.buckets))
	for id := range m.buckets {
		ids = append(ids, id)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ids)))
	return ids
}

// MaxDevices returns one past the largest device id referenced by any
// bucket.
func (m *Map) MaxDevices() int { return m.maxDev }

// TotalWeight sums the weights of the root buckets (buckets that are not an
// item of any other bucket).
func (m *Map) TotalWeight() uint32 {
	child := make(map[int]bool)
	for _, b := range m.buckets {
		for _, it := range b.Items {
			if it < 0 {
				child[it] = true
			}
		}
	}
	var total uint32
	for id, b := range m.buckets {
		if !child[id] {
			total += b.Weight()
		}
	}
	return total
}

// StepOp is a rule step opcode.
type StepOp int

const (
	// OpTake starts a descent at a bucket (arg: bucket id).
	OpTake StepOp = iota + 1
	// OpChooseFirstN picks N distinct items of a type (args: n, type).
	OpChooseFirstN
	// OpChooseIndep picks N items preserving rank positions (EC pools).
	OpChooseIndep
	// OpChooseleafFirstN picks N buckets of a type and descends each to a
	// device.
	OpChooseleafFirstN
	// OpChooseleafIndep is the indep variant of chooseleaf.
	OpChooseleafIndep
	// OpEmit appends the working vector to the result.
	OpEmit
)

func (op StepOp) String() string {
	switch op {
	case OpTake:
		return "take"
	case OpChooseFirstN:
		return "choose firstn"
	case OpChooseIndep:
		return "choose indep"
	case OpChooseleafFirstN:
		return "chooseleaf firstn"
	case OpChooseleafIndep:
		return "chooseleaf indep"
	case OpEmit:
		return "emit"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// Step is one instruction of a placement rule.
type Step struct {
	Op   StepOp
	Arg1 int // take: bucket id; choose*: count (0 = numRep)
	Arg2 int // choose*: item type
}

// Rule is a named sequence of placement steps.
type Rule struct {
	Name  string
	Steps []Step
}

// AddRule registers a rule by name, replacing any previous definition.
func (m *Map) AddRule(r *Rule) {
	m.rules[r.Name] = r
}

// Rule returns the named rule, or nil.
func (m *Map) Rule(name string) *Rule { return m.rules[name] }

// ReplicatedRule builds the standard "take root, chooseleaf firstn 0 type X,
// emit" rule.
func ReplicatedRule(name string, root int, failureDomain int) *Rule {
	return &Rule{
		Name: name,
		Steps: []Step{
			{Op: OpTake, Arg1: root},
			{Op: OpChooseleafFirstN, Arg1: 0, Arg2: failureDomain},
			{Op: OpEmit},
		},
	}
}

// ErasureRule builds the standard indep rule used for EC pools.
func ErasureRule(name string, root int, failureDomain int) *Rule {
	return &Rule{
		Name: name,
		Steps: []Step{
			{Op: OpTake, Arg1: root},
			{Op: OpChooseleafIndep, Arg1: 0, Arg2: failureDomain},
			{Op: OpEmit},
		},
	}
}
