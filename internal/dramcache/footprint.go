package dramcache

import (
	"math/bits"

	"bimodal/internal/addr"
	"bimodal/internal/core"
	"bimodal/internal/memctrl"
)

// fpcPageBytes is the Footprint Cache allocation unit (one DRAM row).
const fpcPageBytes = 2048

// fpcSubBlocks is the number of 64B lines per page.
const fpcSubBlocks = fpcPageBytes / 64

// fpcWays is the page-array associativity.
const fpcWays = 4

// Footprint implements the Footprint Cache baseline (Jevdjic et al., ISCA
// 2013): the cache is organized in 2KB pages whose tags live entirely in
// SRAM; on a page miss only the predicted footprint of 64B lines is
// fetched, and pages predicted to be touched exactly once bypass the cache.
//
// Substitution note: the original predictor is indexed by (PC, offset);
// our traces carry no PCs, so the history table is indexed by (page
// region, trigger offset), which captures the same per-access-pattern
// footprint stability.
type Footprint struct {
	baseStats
	// cfg is reassigned by Reset; snapshots rebuild geometry from it.
	cfg     Config //bmlint:nosnapshot
	stacked *memctrl.Controller
	offchip *memctrl.Controller

	numSets int //bmlint:resetconst //bmlint:nosnapshot
	pages   *assocArray
	state   []fpcPage // parallel payload to pages (indexed set*fpcWays+way)

	hist     []uint32 // footprint history table
	histMask uint64   //bmlint:resetconst //bmlint:nosnapshot

	tagLatency int64 //bmlint:resetconst //bmlint:nosnapshot

	// Bypassed counts pages served without allocation.
	Bypassed int64
	// WastedFetchBytes counts fetched-but-unused line bytes at eviction.
	WastedFetchBytes int64
	// SubMisses counts accesses to resident pages whose line was not
	// fetched (footprint underprediction).
	SubMisses int64
}

type fpcPage struct {
	present uint32 // fetched lines
	used    uint32 // referenced lines
	dirty   uint32
	trigger uint64 // history index that predicted this page's footprint
}

// NewFootprint builds the scheme for cfg.
func NewFootprint(cfg Config) *Footprint {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	stacked, offchip := cfg.controllers()
	numPages := int(cfg.CacheBytes / fpcPageBytes)
	numSets := numPages / fpcWays
	// Tag array SRAM: ~16B per page entry (tag, presence/dirty vectors,
	// replacement state). The latency is charged at the Table IV preset
	// scale — the paper's 1MB/2MB/4MB tag stores at 6/7/9 cycles — even
	// when the experiment runs a capacity-scaled cache, because SRAM
	// structure latencies model the full-size hardware.
	tagPages := numPages
	if cfg.Cores == 4 || cfg.Cores == 8 || cfg.Cores == 16 {
		tagPages = int(DefaultConfig(cfg.Cores).CacheBytes / fpcPageBytes)
	}
	tagBytes := uint64(tagPages) * 16
	const histBits = 14
	return &Footprint{
		cfg:        cfg,
		stacked:    stacked,
		offchip:    offchip,
		numSets:    numSets,
		pages:      newAssocArray(numSets, fpcWays),
		state:      make([]fpcPage, numSets*fpcWays),
		hist:       make([]uint32, 1<<histBits),
		histMask:   1<<histBits - 1,
		tagLatency: core.TagRAMLatency(tagBytes),
	}
}

// Name implements Scheme.
func (f *Footprint) Name() string { return "FootprintCache" }

// pageLoc maps a resident page (set, way) to its DRAM row.
func (f *Footprint) pageLoc(set, way int, column uint64) addr.Location {
	g := f.stacked.Config().Geometry
	slot := set*fpcWays + way
	ch := slot % g.Channels
	i := slot / g.Channels
	return addr.Location{
		Channel: ch,
		Rank:    0,
		Bank:    i % g.Banks(),
		Row:     uint64(i / g.Banks()),
		Column:  column,
	}
}

// histIndex hashes (page identity region, trigger line offset) into the
// footprint history table.
func (f *Footprint) histIndex(pageID uint64, offset uint) uint64 {
	h := (pageID>>4)*0x9E3779B97F4A7C15 + uint64(offset)*0x85EBCA6B
	return (h >> 24) & f.histMask
}

// predictFootprint returns the predicted line mask for a page miss
// triggered at the given line offset. Cold entries predict the full page
// (footprints shrink as history accumulates), always including the
// trigger line.
func (f *Footprint) predictFootprint(pageID uint64, offset uint) (mask uint32, hidx uint64) {
	hidx = f.histIndex(pageID, offset)
	mask = f.hist[hidx]
	if mask == 0 {
		mask = 0xFFFFFFFF // cold: whole page
	}
	mask |= 1 << offset
	return mask, hidx
}

// Access implements Scheme.
func (f *Footprint) Access(req Request, now int64) Result {
	line := req.Addr.Line64()
	pageID := uint64(line) >> 11 // 2KB pages
	offset := uint(uint64(line)>>6) & (fpcSubBlocks - 1)
	set := int(pageID % uint64(f.numSets))
	tag := pageID / uint64(f.numSets)

	t0 := now + f.tagLatency // serial SRAM tag lookup (Figure 3)
	way := f.pages.lookup(set, tag, true)

	var done int64
	var hit bool
	switch {
	case way >= 0 && f.state[set*fpcWays+way].present&(1<<offset) != 0:
		// Page and line resident.
		hit = true
		st := &f.state[set*fpcWays+way]
		st.used |= 1 << offset
		if req.Write {
			st.dirty |= 1 << offset
			wdone, _ := f.stacked.WriteAt(f.pageLoc(set, way, uint64(offset)*64), t0, 64)
			done = wdone
		} else {
			done, _ = f.stacked.ReadAt(f.pageLoc(set, way, uint64(offset)*64), t0, 64)
		}
	case way >= 0:
		// Page resident, line missing: footprint underprediction.
		f.SubMisses++
		st := &f.state[set*fpcWays+way]
		done, _ = f.offchip.Read(line, t0, 64)
		st.present |= 1 << offset
		st.used |= 1 << offset
		if req.Write {
			st.dirty |= 1 << offset
		}
		f.stacked.WriteAt(f.pageLoc(set, way, uint64(offset)*64), now, 64)
	default:
		// Page miss: predict the footprint; singletons bypass.
		mask, hidx := f.predictFootprint(pageID, offset)
		if bits.OnesCount32(mask) == 1 {
			f.Bypassed++
			done, _ = f.offchip.Read(line, t0, 64)
			// Train: observed footprint is (at least) the trigger line.
			f.hist[hidx] = mask
			f.note(req, false, now, done)
			return Result{Done: done, Hit: false}
		}
		done = f.fillPage(req, set, tag, pageID, offset, mask, hidx, t0)
	}
	f.note(req, hit, now, done)
	return Result{Done: done, Hit: hit}
}

// fillPage allocates a page, fetching the predicted footprint with the
// critical line first; the victim page trains the predictor and writes
// back its dirty lines.
func (f *Footprint) fillPage(req Request, set int, tag, pageID uint64, offset uint, mask uint32, hidx uint64, t0 int64) int64 {
	victim, way := f.pages.insert(set, tag, 0)
	if victim.valid {
		f.evictPage(set, victim, t0)
	}
	critDone, _ := f.offchip.Read(req.Addr.Line64(), t0, 64)
	fetchBytes := int64(bits.OnesCount32(mask)) * 64
	if rest := fetchBytes - 64; rest > 0 {
		pageBase := req.Addr.Block(fpcPageBytes)
		f.offchip.Read(pageBase, t0, rest) // posted, never future-dated
	}
	st := &f.state[set*fpcWays+way]
	*st = fpcPage{present: mask, used: 1 << offset, trigger: hidx}
	if req.Write {
		st.dirty = 1 << offset
	}
	f.stacked.WriteAt(f.pageLoc(set, way, 0), t0, fetchBytes) // posted fill
	return critDone
}

// evictPage trains the footprint history with the observed usage, counts
// waste and writes back dirty lines.
func (f *Footprint) evictPage(set int, victim victimTag, at int64) {
	st := &f.state[set*fpcWays+victim.way]
	f.hist[st.trigger] = st.used
	f.WastedFetchBytes += int64(bits.OnesCount32(st.present&^st.used)) * 64
	if st.dirty != 0 {
		dirtyBytes := int64(bits.OnesCount32(st.dirty)) * 64
		f.stacked.ReadAt(f.pageLoc(set, victim.way, 0), at, dirtyBytes)
		base := addr.Phys((victim.tag*uint64(f.numSets) + uint64(set)) << 11)
		mask := st.dirty
		for sub := 0; mask != 0; sub++ {
			if mask&1 != 0 {
				f.offchip.Write(base+addr.Phys(sub*64), at, 64)
			}
			mask >>= 1
		}
	}
	*st = fpcPage{}
}

// Reset implements Resetter: the scheme returns to its just-constructed
// state in place, reusing the page array, page-state payloads, history
// table and both controllers. Only cfg.Seed may differ from the
// construction Config (Footprint draws no randomness).
//
//bmlint:hotpath
func (f *Footprint) Reset(cfg Config) bool {
	if !sameGeometry(cfg, f.cfg) {
		return false
	}
	f.cfg = cfg
	f.baseStats.reset()
	f.stacked.Reset()
	f.offchip.Reset()
	f.pages.reset()
	for i := range f.state {
		f.state[i] = fpcPage{}
	}
	for i := range f.hist {
		f.hist[i] = 0
	}
	f.Bypassed, f.WastedFetchBytes, f.SubMisses = 0, 0, 0
	return true
}

// ResetStats implements Scheme.
func (f *Footprint) ResetStats() {
	f.baseStats.reset()
	f.Bypassed, f.WastedFetchBytes, f.SubMisses = 0, 0, 0
	f.stacked.ResetStats()
	f.offchip.ResetStats()
}

// Report implements Scheme.
func (f *Footprint) Report() Report {
	r := Report{Scheme: f.Name()}
	f.fill(&r)
	off := f.offchip.Stats()
	r.OffchipReadBytes = off.BytesRead
	r.OffchipWriteBytes = off.BytesWrit
	r.WastedFetchBytes = f.WastedFetchBytes
	r.Stacked = f.stacked.Stats()
	r.Offchip = off
	return r
}
