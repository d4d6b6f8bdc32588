package guest

import (
	"fmt"

	"hyperalloc/internal/buddy"
	"hyperalloc/internal/llfree"
	"hyperalloc/internal/mem"
)

// ChunkState is one allocated block: the owning zone by index into
// Guest.Zones(), the zone-relative frame, and the order.
type ChunkState struct {
	Zone  int
	PFN   mem.PFN
	Order mem.Order
}

// RegionState is a serialized Region. Regions are owned by the workload
// (the guest holds no region list), so the checkpointing scenario captures
// and restores each region it holds via Region.State / Guest.RestoreRegion
// and keeps them in its own deterministic order. Restore sums its size.
type RegionState struct {
	Chunks []ChunkState `json:",omitempty"`
	Freed  bool         `json:",omitempty"`
}

// FileState is one cached file, in LRU position order. The file's size is
// its page count times the page size, recomputed on restore.
type FileState struct {
	Name   string
	Pages  []ChunkState `json:",omitempty"`
	LastAt uint64
}

// ZoneAllocState is one zone's allocator state; exactly one of LLFree and
// Buddy is set, matching the zone's adapter.
type ZoneAllocState struct {
	Kind     mem.ZoneKind
	LLFree   *llfree.AllocState `json:",omitempty"`
	Buddy    *buddy.AllocState  `json:",omitempty"`
	Installs uint64             `json:",omitempty"` // LLFreeAdapter install count
}

// GuestState is the serializable state of a Guest: per-zone allocator
// words, the page cache, and the pressure counters. Region contents are
// captured separately by their owner (see RegionState). The cache size is
// the sum of the file sizes, recomputed on restore.
type GuestState struct {
	Zones         []ZoneAllocState `json:",omitempty"`
	Files         []FileState      `json:",omitempty"`
	CacheClock    uint64           `json:",omitempty"`
	Evictions     uint64           `json:",omitempty"`
	OOMKills      uint64           `json:",omitempty"`
	CacheReclaims uint64           `json:",omitempty"`
	Migrations    uint64           `json:",omitempty"`
}

// State captures the region (for the workload that owns it).
func (r *Region) State() RegionState {
	st := RegionState{Freed: r.freed}
	for _, c := range r.chunks {
		st.Chunks = append(st.Chunks, r.guest.chunkState(c))
	}
	return st
}

func (g *Guest) chunkState(c chunk) ChunkState {
	for i, z := range g.zones {
		if z == c.zone {
			return ChunkState{Zone: i, PFN: c.pfn, Order: c.order}
		}
	}
	panic("guest: chunk in unknown zone")
}

// ResolveBlock checks a checkpointed region chunk, cached page or balloon
// block and returns its zone. The block must be aligned and inside the
// zone, held by the zone's allocator as one allocation of exactly its
// order (which bounds the order), and owned by no region or file yet.
func (g *Guest) ResolveBlock(cs ChunkState) (*Zone, error) {
	if cs.Zone < 0 || cs.Zone >= len(g.zones) {
		return nil, fmt.Errorf("guest: restore: zone %d out of range", cs.Zone)
	}
	z, p := g.zones[cs.Zone], uint64(cs.PFN)
	var held bool
	switch impl := z.Impl.(type) {
	case *buddy.Alloc:
		held = impl.BlockUsed(cs.PFN, cs.Order)
	case *LLFreeAdapter: // LLFree records no order: every frame of the block must be held
		held = impl.A.BlockAllocated(p, cs.Order)
	}
	switch {
	case p >= z.Frames || cs.Order.Frames() > z.Frames-p || !cs.PFN.AlignedTo(uint(cs.Order)):
		return nil, fmt.Errorf("guest: restore: order-%d block %d is misaligned or passes the end of zone %d",
			cs.Order, p, cs.Zone)
	case !held:
		return nil, fmt.Errorf("guest: restore: zone %d holds no order-%d allocation at %d", cs.Zone, cs.Order, p)
	case g.rmap[rmapKey{z, cs.PFN}] != rmapOwner{}:
		return nil, fmt.Errorf("guest: restore: block %d of zone %d has two owners", p, cs.Zone)
	}
	return z, nil
}

// RestoreRegion reconstructs a region from its checkpointed state,
// re-linking the rmap entries. The underlying frames must already be
// allocated (the zone allocator state is restored first).
func (g *Guest) RestoreRegion(st RegionState) (*Region, error) {
	r := &Region{guest: g, freed: st.Freed}
	for _, cs := range st.Chunks {
		z, err := g.ResolveBlock(cs)
		if err != nil {
			return nil, err
		}
		r.chunks = append(r.chunks, chunk{z, cs.PFN, cs.Order})
		r.bytes += cs.Order.Size()
		g.rmapSet(z, cs.PFN, rmapOwner{region: r, idx: int32(len(r.chunks) - 1)})
	}
	return r, nil
}

// State captures the guest (allocators, cache, counters).
func (g *Guest) State() (*GuestState, error) {
	st := &GuestState{
		CacheClock:    g.cache.clock,
		Evictions:     g.cache.Evictions,
		OOMKills:      g.OOMKills,
		CacheReclaims: g.CacheReclaims,
		Migrations:    g.Migrations,
	}
	for _, z := range g.zones {
		zs := ZoneAllocState{Kind: z.Kind}
		switch impl := z.Impl.(type) {
		case *LLFreeAdapter:
			zs.LLFree = impl.A.State()
			zs.Installs = impl.Installs
		case *buddy.Alloc:
			zs.Buddy = impl.State()
		default:
			return nil, fmt.Errorf("guest: zone %v allocator %T cannot be checkpointed", z.Kind, z.Impl)
		}
		st.Zones = append(st.Zones, zs)
	}
	for _, f := range g.cache.lru {
		fs := FileState{Name: f.name, LastAt: f.lastAt}
		for _, p := range f.pages {
			fs.Pages = append(fs.Pages, g.chunkState(p))
		}
		st.Files = append(st.Files, fs)
	}
	return st, nil
}

// RestoreState overwrites the guest with a checkpointed state. Regions are
// restored separately by their owners after this call.
func (g *Guest) RestoreState(st *GuestState) error {
	if len(st.Zones) != len(g.zones) {
		return fmt.Errorf("guest: restore: %d zones, checkpoint %d", len(g.zones), len(st.Zones))
	}
	for i, zs := range st.Zones {
		z := g.zones[i]
		if z.Kind != zs.Kind {
			return fmt.Errorf("guest: restore: zone %d is %v, checkpoint %v", i, z.Kind, zs.Kind)
		}
		switch impl := z.Impl.(type) {
		case *LLFreeAdapter:
			if zs.LLFree == nil {
				return fmt.Errorf("guest: restore: zone %d has no llfree state", i)
			}
			if err := impl.A.RestoreState(zs.LLFree); err != nil {
				return err
			}
			impl.Installs = zs.Installs
		case *buddy.Alloc:
			if zs.Buddy == nil {
				return fmt.Errorf("guest: restore: zone %d has no buddy state", i)
			}
			if err := impl.RestoreState(zs.Buddy); err != nil {
				return err
			}
		default:
			return fmt.Errorf("guest: zone %v allocator %T cannot be restored", z.Kind, z.Impl)
		}
	}
	g.rmap = nil
	g.cache.bytes = 0
	g.cache.files = make(map[string]*cachedFile, len(st.Files))
	g.cache.lru = g.cache.lru[:0]
	for _, fs := range st.Files {
		if _, dup := g.cache.files[fs.Name]; dup {
			return fmt.Errorf("guest: restore: file %q cached twice", fs.Name)
		}
		f := &cachedFile{name: fs.Name, lastAt: fs.LastAt}
		for _, ps := range fs.Pages {
			z, err := g.ResolveBlock(ps)
			if err != nil {
				return err
			}
			f.pages = append(f.pages, chunk{z, ps.PFN, ps.Order})
			f.bytes += ps.Order.Size()
			g.rmapSet(z, ps.PFN, rmapOwner{file: f, idx: int32(len(f.pages) - 1)})
		}
		g.cache.bytes += f.bytes
		g.cache.files[f.name] = f
		g.cache.lru = append(g.cache.lru, f)
	}
	g.cache.clock = st.CacheClock
	g.cache.Evictions = st.Evictions
	g.OOMKills = st.OOMKills
	g.CacheReclaims = st.CacheReclaims
	g.Migrations = st.Migrations
	return nil
}
