package crush

import "fmt"

// isOut applies the per-device reweight table: a device with reweight
// 0x10000 is always in, 0 always out, and intermediate values are a
// probabilistic dial keyed by (x, item) — exactly Ceph's is_out.
func (m *Map) isOut(item int, x uint32, reweight []uint32) bool {
	if reweight == nil {
		return false
	}
	if item >= len(reweight) {
		return true
	}
	w := reweight[item]
	if w >= WeightOne {
		return false
	}
	if w == 0 {
		return true
	}
	return Hash2(x, uint32(int32(item)))&0xffff >= w
}

// chooseFirstN is the replica-oriented selection pass (crush_choose_firstn):
// it fills up to numRep distinct items of the wanted type, retrying the
// descent with perturbed replica ranks on collision, rejection, or overload.
// When recurseToLeaf is set it additionally descends each chosen bucket to a
// single device, returned in the second slice.
func (m *Map) chooseFirstN(in *Bucket, x uint32, numRep, itemType int,
	recurseToLeaf bool, reweight []uint32, parentR int) (out, leaves []int) {

	for rep := 0; rep < numRep; rep++ {
		ftotal := 0
		skip := false
		var item, leafItem int
	retryDescent:
		for {
			cur := in
		retryBucket:
			for {
				if cur == nil || cur.Size() == 0 {
					ftotal++
					if ftotal < chooseTotalTries {
						continue retryDescent
					}
					skip = true
					break retryDescent
				}
				r := rep + parentR + ftotal
				item = cur.Choose(x, uint32(r))

				curType := 0
				if item < 0 {
					child := m.buckets[item]
					if child == nil {
						skip = true
						break retryDescent
					}
					curType = child.Type
					if curType != itemType {
						// Keep descending toward the wanted type.
						cur = child
						continue retryBucket
					}
				} else if itemType != 0 {
					// Hit a device while looking for a bucket type:
					// malformed hierarchy for this rule; reject.
					curType = 0
				}
				if curType != itemType {
					ftotal++
					if ftotal < chooseTotalTries {
						continue retryDescent
					}
					skip = true
					break retryDescent
				}

				collide := false
				for _, o := range out {
					if o == item {
						collide = true
						break
					}
				}

				reject := false
				if !collide && recurseToLeaf && item < 0 {
					sub, _ := m.chooseFirstN(m.buckets[item], x, 1, 0,
						false, reweight, r)
					if len(sub) == 0 {
						reject = true
					} else {
						leafItem = sub[0]
						// Distinct buckets can still race to the same
						// device through misweighted hierarchies; check.
						for _, l := range leaves {
							if l == leafItem {
								collide = true
								break
							}
						}
					}
				} else if recurseToLeaf {
					leafItem = item
				}
				if !reject && !collide && itemType == 0 {
					reject = m.isOut(item, x, reweight)
				}

				if reject || collide {
					ftotal++
					if ftotal < chooseTotalTries {
						continue retryDescent
					}
					skip = true
					break retryDescent
				}
				break retryDescent // success
			}
		}
		if skip {
			continue
		}
		out = append(out, item)
		if recurseToLeaf {
			leaves = append(leaves, leafItem)
		}
	}
	return out, leaves
}

// chooseIndep is the rank-preserving selection pass used by erasure-coded
// pools (crush_choose_indep): every output rank is filled independently so
// that a failure at rank i never shifts the shards at other ranks. Unfilled
// ranks come back as ItemNone.
func (m *Map) chooseIndep(in *Bucket, x uint32, numRep, itemType int,
	recurseToLeaf bool, reweight []uint32, parentR int) (out, leaves []int) {

	out = make([]int, numRep)
	leaves = make([]int, numRep)
	for i := range out {
		out[i] = itemUndef
		leaves[i] = itemUndef
	}
	left := numRep

	for ftotal := 0; left > 0 && ftotal < chooseTotalTries; ftotal++ {
		for rep := 0; rep < numRep; rep++ {
			if out[rep] != itemUndef {
				continue
			}
			cur := in
			for {
				if cur == nil || cur.Size() == 0 {
					break // retry next round
				}
				r := rep + parentR
				// Perturb r so each global retry explores a fresh choice;
				// uniform buckets sized as a multiple of numRep need the
				// offset to be coprime-ish with the size (Ceph's trick).
				if cur.Alg == UniformAlg && cur.Size()%numRep == 0 {
					r += (numRep + 1) * ftotal
				} else {
					r += numRep * ftotal
				}
				item := cur.Choose(x, uint32(r))

				curType := 0
				if item < 0 {
					child := m.buckets[item]
					if child == nil {
						break
					}
					curType = child.Type
					if curType != itemType {
						cur = child
						continue
					}
				} else if itemType != 0 {
					break
				}

				collide := false
				for _, o := range out {
					if o == item {
						collide = true
						break
					}
				}
				if collide {
					break
				}

				leafItem := item
				if recurseToLeaf && item < 0 {
					sub, _ := m.chooseIndep(m.buckets[item], x, 1, 0,
						false, reweight, r)
					if sub[0] == ItemNone {
						break
					}
					leafItem = sub[0]
					lc := false
					for _, l := range leaves {
						if l == leafItem {
							lc = true
							break
						}
					}
					if lc {
						break
					}
				}
				if itemType == 0 && m.isOut(item, x, reweight) {
					break
				}

				out[rep] = item
				leaves[rep] = leafItem
				left--
				break
			}
		}
	}
	for i := range out {
		if out[i] == itemUndef {
			out[i] = ItemNone
			leaves[i] = ItemNone
		}
	}
	return out, leaves
}

// Select executes a placement rule for input x, returning numRep placement
// targets. For firstn rules the result holds up to numRep distinct devices
// (fewer if the map cannot satisfy the rule); for indep rules it holds
// exactly numRep entries with ItemNone marking unplaceable ranks. reweight
// optionally supplies the per-device overload table (16.16 fixed point,
// indexed by device id); nil means every device is fully in.
func (m *Map) Select(rule *Rule, x uint32, numRep int, reweight []uint32) ([]int, error) {
	if rule == nil {
		return nil, fmt.Errorf("crush: nil rule")
	}
	if numRep <= 0 {
		return nil, fmt.Errorf("crush: numRep %d", numRep)
	}
	var working []int
	var result []int
	for _, step := range rule.Steps {
		switch step.Op {
		case OpTake:
			if step.Arg1 < 0 && m.buckets[step.Arg1] == nil {
				return nil, fmt.Errorf("crush: take of unknown bucket %d", step.Arg1)
			}
			working = []int{step.Arg1}

		case OpChooseFirstN, OpChooseleafFirstN, OpChooseIndep, OpChooseleafIndep:
			n := step.Arg1
			if n <= 0 {
				n += numRep
			}
			if n <= 0 {
				return nil, fmt.Errorf("crush: step count resolves to %d", n)
			}
			var next []int
			for _, wid := range working {
				if wid >= 0 {
					// A device in the working set passes through a choose
					// of type 0 and is invalid otherwise.
					if step.Arg2 == 0 {
						next = append(next, wid)
					}
					continue
				}
				b := m.buckets[wid]
				if b == nil {
					return nil, fmt.Errorf("crush: unknown bucket %d in working set", wid)
				}
				leaf := step.Op == OpChooseleafFirstN || step.Op == OpChooseleafIndep
				indep := step.Op == OpChooseIndep || step.Op == OpChooseleafIndep
				var out, leaves []int
				if indep {
					out, leaves = m.chooseIndep(b, x, n, step.Arg2, leaf, reweight, 0)
				} else {
					out, leaves = m.chooseFirstN(b, x, n, step.Arg2, leaf, reweight, 0)
				}
				if leaf {
					next = append(next, leaves...)
				} else {
					next = append(next, out...)
				}
			}
			working = next

		case OpEmit:
			result = append(result, working...)
			working = nil

		default:
			return nil, fmt.Errorf("crush: unknown op %v", step.Op)
		}
	}
	return result, nil
}
