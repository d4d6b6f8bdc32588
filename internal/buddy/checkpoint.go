package buddy

import "fmt"

// AllocState is the serializable state of a buddy allocator. Geometry and
// pcp tuning come from the Config the allocator is rebuilt with; the link
// arrays, list lengths, free sums and per-area usage are derived on
// restore. The []uint8 arrays marshal as base64.
type AllocState struct {
	Frames uint64
	Hdr    []uint8 `json:",omitempty"`
	// Free holds each [order][list] free list's block PFNs, head first:
	// list order is allocation order, so it is state.
	Free    [maxOrder + 1][numLists][]uint32
	BlockMT []uint8 `json:",omitempty"`
	Offline uint64  `json:",omitempty"`
	// PCP holds each cpu's per-migratetype cached frame lists, flattened in
	// cpu-major order.
	PCP [][numMT][]uint32 `json:",omitempty"`
}

// State captures the allocator.
func (a *Alloc) State() *AllocState {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := &AllocState{
		Frames:  a.frames,
		Hdr:     append([]uint8(nil), a.hdr...),
		BlockMT: append([]uint8(nil), a.pageblockMT...),
		Offline: a.offline,
	}
	for order := range st.Free {
		for mt := range st.Free[order] {
			s := a.sentinel(order, mt)
			for cur := a.next[s]; uint64(cur) != s; cur = a.next[cur] {
				st.Free[order][mt] = append(st.Free[order][mt], cur)
			}
		}
	}
	st.PCP = make([][numMT][]uint32, len(a.pcps))
	for i := range a.pcps {
		for mt := 0; mt < numMT; mt++ {
			st.PCP[i][mt] = append([]uint32(nil), a.pcps[i].lists[mt]...)
		}
	}
	return st
}

// RestoreState overwrites the allocator with a checkpointed state. The
// allocator must have been rebuilt with the same Config (frame count, cpu
// count, pcp tuning). Each listed block must fit the zone, be aligned,
// carry a "free at this order and list" header and be listed once, and
// walkHeaders rejects a free header on no list; errors wrap ErrBadState.
func (a *Alloc) RestoreState(st *AllocState) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if st.Frames != a.frames {
		return fmt.Errorf("buddy: restore: %d frames, checkpoint %d", a.frames, st.Frames)
	}
	if len(st.Hdr) != len(a.hdr) || len(st.BlockMT) != len(a.pageblockMT) || len(st.PCP) != len(a.pcps) {
		return fmt.Errorf("buddy: restore: geometry mismatch (rebuild used a different Config)")
	}
	for area, mt := range st.BlockMT {
		if int(mt) >= numLists {
			return fmt.Errorf("%w: restore: pageblock %d has migratetype %d", ErrBadState, area, mt)
		}
	}
	copy(a.hdr, st.Hdr)
	copy(a.pageblockMT, st.BlockMT)
	a.offline = st.Offline
	// Point every frame and sentinel at itself (unlinked frames, empty
	// lists), then append each listed block, recounting the sums.
	for i := range a.next {
		a.next[i], a.prev[i] = uint32(i), uint32(i)
	}
	a.freeCount, a.freeTotal, a.isolated = [maxOrder + 1][numLists]uint64{}, 0, 0
	for order := range st.Free {
		for mt, pfns := range st.Free[order] {
			for _, p := range pfns {
				switch {
				case uint64(p)+1<<order > a.frames || p&(1<<order-1) != 0:
					return fmt.Errorf("%w: restore: free block %d overruns the zone or is misaligned for order %d",
						ErrBadState, p, order)
				case a.hdr[p]&^hdrReported != hdrFree|uint8(order)|uint8(mt)<<hdrMTShift:
					return fmt.Errorf("%w: restore: free block %d on list (%d, %d) has header %#x",
						ErrBadState, p, order, mt, a.hdr[p])
				case a.next[p] != p:
					return fmt.Errorf("%w: restore: free block %d listed twice", ErrBadState, p)
				}
				a.insertTail(uint64(p), order, mt, a.hdr[p]&hdrReported != 0)
			}
		}
	}
	used, _, err := a.walkHeaders()
	if err != nil {
		return err
	}
	copy(a.areaUsed, used)
	for i := range a.pcps {
		for mt := 0; mt < numMT; mt++ {
			a.pcps[i].lists[mt] = append(a.pcps[i].lists[mt][:0], st.PCP[i][mt]...)
		}
	}
	return nil
}
