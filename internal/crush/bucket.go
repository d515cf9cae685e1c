package crush

import (
	"fmt"
	"math"
	"sort"
)

// WeightOne is the fixed-point representation of weight 1.0 (16.16).
const WeightOne uint32 = 0x10000

// Alg identifies a bucket's internal selection structure. Each alg trades
// placement quality against update cost, exactly as in the CRUSH paper; the
// paper's Table I benchmarks hardware kernels for all five.
type Alg int

const (
	// UniformAlg: O(1) selection, only valid when all items share one
	// weight; any membership change reshuffles nearly everything.
	UniformAlg Alg = iota + 1
	// ListAlg: O(n) selection; additions at the head are cheap, removals
	// expensive.
	ListAlg
	// TreeAlg: O(log n) selection over a weighted binary tree.
	TreeAlg
	// StrawAlg: O(n) selection, original "straws" scaling (legacy, known
	// non-ideal weight response).
	StrawAlg
	// Straw2Alg: O(n) selection with exact weighted sampling via
	// -ln(u)/w draws; the modern Ceph default.
	Straw2Alg
)

func (a Alg) String() string {
	switch a {
	case UniformAlg:
		return "uniform"
	case ListAlg:
		return "list"
	case TreeAlg:
		return "tree"
	case StrawAlg:
		return "straw"
	case Straw2Alg:
		return "straw2"
	default:
		return fmt.Sprintf("Alg(%d)", int(a))
	}
}

// Bucket is an interior node of the CRUSH hierarchy. Items are either
// device IDs (>= 0) or child bucket IDs (< 0).
type Bucket struct {
	ID    int // negative
	Type  int // hierarchy level type (host, rack, ...)
	Alg   Alg
	Items []int
	// weights holds per-item fixed-point weights (16.16).
	weights []uint32
	weight  uint32 // total

	// list alg: cumulative weights (sumWeights[i] = sum of weights[0..i]).
	sumWeights []uint32
	// tree alg: implicit binary tree node weights.
	nodeWeights []uint32
	// straw alg: per-item straw multipliers.
	straws []uint32
	// uniform alg: cached permutation state (as in the C implementation).
	permX uint32
	permN uint32
	perm  []uint32
}

// NewBucket creates a bucket with the given items and fixed-point weights.
// For UniformAlg all weights must be equal.
func NewBucket(id, typ int, alg Alg, items []int, weights []uint32) (*Bucket, error) {
	if id >= 0 {
		return nil, fmt.Errorf("crush: bucket id %d must be negative", id)
	}
	if len(items) != len(weights) {
		return nil, fmt.Errorf("crush: %d items but %d weights", len(items), len(weights))
	}
	b := &Bucket{
		ID:      id,
		Type:    typ,
		Alg:     alg,
		Items:   append([]int(nil), items...),
		weights: append([]uint32(nil), weights...),
	}
	if err := b.derive(); err != nil {
		return nil, err
	}
	return b, nil
}

// Size returns the number of direct items.
func (b *Bucket) Size() int { return len(b.Items) }

// Weight returns the total fixed-point weight.
func (b *Bucket) Weight() uint32 { return b.weight }

// ItemWeight returns the fixed-point weight of the i-th item.
func (b *Bucket) ItemWeight(i int) uint32 { return b.weights[i] }

// derive computes the alg-specific state derived from items and weights.
func (b *Bucket) derive() error {
	for _, w := range b.weights {
		b.weight += w
	}
	switch b.Alg {
	case UniformAlg:
		for _, w := range b.weights {
			if w != b.weights[0] {
				return fmt.Errorf("crush: uniform bucket %d has unequal weights", b.ID)
			}
		}
		b.perm = make([]uint32, len(b.Items))
	case ListAlg:
		b.sumWeights = make([]uint32, len(b.Items))
		var sum uint32
		for i, w := range b.weights {
			sum += w
			b.sumWeights[i] = sum
		}
	case TreeAlg:
		b.buildTree()
	case StrawAlg:
		b.calcStraws()
	case Straw2Alg:
		// no precomputation
	default:
		return fmt.Errorf("crush: unknown alg %v", b.Alg)
	}
	return nil
}

// Choose selects an item for input x and replica rank r. The bucket must be
// non-empty.
func (b *Bucket) Choose(x uint32, r uint32) int {
	switch b.Alg {
	case UniformAlg:
		return b.chooseUniform(x, r)
	case ListAlg:
		return b.chooseList(x, r)
	case TreeAlg:
		return b.chooseTree(x, r)
	case StrawAlg:
		return b.chooseStraw(x, r)
	case Straw2Alg:
		return b.chooseStraw2(x, r)
	}
	panic("crush: bad bucket alg")
}

// --- uniform ----------------------------------------------------------

// chooseUniform is bucket_perm_choose: an incrementally computed
// pseudo-random permutation of the items, keyed by x.
func (b *Bucket) chooseUniform(x, r uint32) int {
	size := uint32(len(b.Items))
	pr := r % size
	if b.permX != x || b.permN == 0 {
		b.permX = x
		if pr == 0 {
			s := Hash3(x, uint32(int32(b.ID)), 0) % size
			b.perm[0] = s
			b.permN = 0xffff // marker: only slot 0 valid
			return b.Items[s]
		}
		for i := range b.perm {
			b.perm[i] = uint32(i)
		}
		b.permN = 0
	} else if b.permN == 0xffff {
		// Materialise the full identity permutation consistent with the
		// r=0 shortcut taken earlier.
		for i := uint32(1); i < size; i++ {
			b.perm[i] = i
		}
		b.perm[b.perm[0]] = 0
		b.permN = 1
	}
	for b.permN <= pr {
		p := b.permN
		if p < size-1 {
			i := Hash3(x, uint32(int32(b.ID)), p) % (size - p)
			if i != 0 {
				b.perm[p+i], b.perm[p] = b.perm[p], b.perm[p+i]
			}
		}
		b.permN++
	}
	return b.Items[b.perm[pr]]
}

// --- list -------------------------------------------------------------

func (b *Bucket) chooseList(x, r uint32) int {
	for i := len(b.Items) - 1; i >= 0; i-- {
		w := uint64(Hash4(x, uint32(int32(b.Items[i])), r, uint32(int32(b.ID))))
		w &= 0xffff
		w *= uint64(b.sumWeights[i])
		w >>= 16
		if w < uint64(b.weights[i]) {
			return b.Items[i]
		}
	}
	return b.Items[0]
}

// --- tree -------------------------------------------------------------

// Tree nodes live in an implicit array: item i sits at node 2i+1 (odd
// indices are leaves), internal nodes at even indices, root at
// numNodes>>1.
func treeDepth(size int) uint {
	depth := uint(1)
	for (1 << depth) < 2*size {
		depth++
	}
	return depth
}

func nodeHeight(n int) uint {
	h := uint(0)
	for n&1 == 0 {
		h++
		n >>= 1
	}
	return h
}

func nodeParent(n int) int {
	h := nodeHeight(n)
	if n&(1<<(h+1)) != 0 {
		return n - (1 << h)
	}
	return n + (1 << h)
}

func nodeLeft(n int) int  { return n - (1 << (nodeHeight(n) - 1)) }
func nodeRight(n int) int { return n + (1 << (nodeHeight(n) - 1)) }

func (b *Bucket) buildTree() {
	size := len(b.Items)
	if size == 0 {
		b.nodeWeights = nil
		return
	}
	depth := treeDepth(size)
	numNodes := 1 << depth
	b.nodeWeights = make([]uint32, numNodes)
	for i, w := range b.weights {
		node := 2*i + 1
		b.nodeWeights[node] = w
		for j := uint(1); j < depth; j++ {
			node = nodeParent(node)
			if node >= numNodes {
				break
			}
			b.nodeWeights[node] += w
		}
	}
}

func (b *Bucket) chooseTree(x, r uint32) int {
	n := len(b.nodeWeights) >> 1 // root
	for n&1 == 0 {
		w := b.nodeWeights[n]
		t := uint64(Hash4(x, uint32(n), r, uint32(int32(b.ID)))) * uint64(w)
		t >>= 32
		l := nodeLeft(n)
		if t < uint64(b.nodeWeights[l]) {
			n = l
		} else {
			n = nodeRight(n)
		}
	}
	return b.Items[n>>1]
}

// --- straw ------------------------------------------------------------

// calcStraws implements the original straw-length computation: items are
// processed in ascending weight order and each weight class gets a straw
// multiplier chosen so its win probability approximates its weight share.
func (b *Bucket) calcStraws() {
	size := len(b.Items)
	b.straws = make([]uint32, size)
	if size == 0 {
		return
	}
	order := make([]int, size)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, c int) bool {
		return b.weights[order[a]] < b.weights[order[c]]
	})

	numLeft := size
	straw := 1.0
	wBelow := 0.0
	lastW := 0.0
	i := 0
	for i < size {
		if b.weights[order[i]] == 0 {
			b.straws[order[i]] = 0
			i++
			numLeft--
			continue
		}
		b.straws[order[i]] = uint32(straw * 0x10000)
		i++
		if i == size {
			break
		}
		if b.weights[order[i]] == b.weights[order[i-1]] {
			continue
		}
		wBelow += (float64(b.weights[order[i-1]]) - lastW) * float64(numLeft)
		for j := i; j < size; j++ {
			if b.weights[order[j]] == b.weights[order[i]] {
				numLeft--
			} else {
				break
			}
		}
		wNext := float64(numLeft) * float64(b.weights[order[i]]-b.weights[order[i-1]])
		pBelow := wBelow / (wBelow + wNext)
		straw *= math.Pow(1.0/pBelow, 1.0/float64(numLeft))
		lastW = float64(b.weights[order[i-1]])
	}
}

func (b *Bucket) chooseStraw(x, r uint32) int {
	var best int
	var bestDraw uint64
	first := true
	for i, item := range b.Items {
		h := Hash3(x, uint32(int32(item)), r) & 0xffff
		draw := uint64(h) * uint64(b.straws[i])
		if first || draw > bestDraw {
			best, bestDraw, first = item, draw, false
		}
	}
	return best
}

// --- straw2 -----------------------------------------------------------

// straw2Ln[u] is ln((u+1)/65536), the log of straw2 draw u. It is filled
// once with the same math.Log values a draw would compute, so placements
// do not change; a draw costs a load instead of a logarithm.
var straw2Ln [1 << 16]float64

func init() {
	for u := range straw2Ln {
		straw2Ln[u] = math.Log(float64(u+1) / 65536.0)
	}
}

// chooseStraw2 gives exact weight-proportional selection: each item draws
// u ~ U(0,1] keyed by (x, item, r) and scores ln(u)/w; the maximum (least
// negative) score wins. This is the continuous formulation of Ceph's
// fixed-point crush_ln version; determinism still holds because inputs and
// float operations are identical run to run.
func (b *Bucket) chooseStraw2(x, r uint32) int {
	var best int
	bestDraw := math.Inf(-1)
	first := true
	for i, item := range b.Items {
		w := b.weights[i]
		var draw float64
		if w == 0 {
			draw = math.Inf(-1)
		} else {
			u := Hash3(x, uint32(int32(item)), r) & 0xffff
			draw = straw2Ln[u] / float64(w)
		}
		if first || draw > bestDraw {
			best, bestDraw, first = item, draw, false
		}
	}
	return best
}
