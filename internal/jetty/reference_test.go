package jetty

import (
	"math/rand"
	"testing"

	"jetty/internal/energy"
)

// refExclude is a rank-ordered EJ/VEJ written straight from §3.1: each
// set keeps its ways in recency order, a miss allocates the first invalid
// way or else the least recently touched one, and addresses split by
// division instead of shifts and masks. It is the oracle for Exclude's
// replacement choice.
type refExclude struct {
	cfg   ExcludeConfig
	upb   int
	tags  [][]uint64
	pvs   [][]uint64
	order [][]int // per set: way indexes, most recently touched first
	count energy.FilterCounts
}

func newRefExclude(cfg ExcludeConfig, upb int) *refExclude {
	m := &refExclude{cfg: cfg, upb: upb}
	m.reset()
	return m
}

func (m *refExclude) reset() {
	m.tags = make([][]uint64, m.cfg.Sets)
	m.pvs = make([][]uint64, m.cfg.Sets)
	m.order = make([][]int, m.cfg.Sets)
	for s := range m.order {
		m.tags[s] = make([]uint64, m.cfg.Ways)
		m.pvs[s] = make([]uint64, m.cfg.Ways)
		for w := 0; w < m.cfg.Ways; w++ {
			m.order[s] = append(m.order[s], w)
		}
	}
	m.count = energy.FilterCounts{}
}

// split returns the set, tag and present bit of a unit: a VEJ tracks the
// unit, a plain EJ its block.
func (m *refExclude) split(unit, block uint64) (set int, tag, bit uint64) {
	if m.cfg.Vector == 1 {
		return int(block % uint64(m.cfg.Sets)), block / uint64(m.cfg.Sets), 1
	}
	v, s := uint64(m.cfg.Vector), uint64(m.cfg.Sets)
	return int(unit / v % s), unit / (v * s), 1 << (unit % v)
}

func (m *refExclude) find(set int, tag uint64) int {
	for w := range m.tags[set] {
		if m.pvs[set][w] != 0 && m.tags[set][w] == tag {
			return w
		}
	}
	return -1
}

func (m *refExclude) touch(set, w int) {
	o := m.order[set]
	i := 0
	for o[i] != w {
		i++
	}
	copy(o[1:i+1], o[:i])
	o[0] = w
}

func (m *refExclude) victim(set int) int {
	for w, pv := range m.pvs[set] {
		if pv == 0 {
			return w
		}
	}
	return m.order[set][m.cfg.Ways-1]
}

func (m *refExclude) peek(unit, block uint64) bool {
	set, tag, bit := m.split(unit, block)
	w := m.find(set, tag)
	return w >= 0 && m.pvs[set][w]&bit != 0
}

func (m *refExclude) probe(unit, block uint64) bool {
	m.count.Probes++
	set, tag, bit := m.split(unit, block)
	if w := m.find(set, tag); w >= 0 && m.pvs[set][w]&bit != 0 {
		m.touch(set, w)
		m.count.Filtered++
		return true
	}
	return false
}

func (m *refExclude) snoopMiss(unit, block uint64, blockAbsent bool) {
	if m.cfg.Vector == 1 && !blockAbsent {
		return
	}
	set, tag, bits := m.split(unit, block)
	if m.cfg.Vector > 1 && blockAbsent {
		bits = 0
		for i := 0; i < m.upb; i++ {
			_, _, b := m.split(block*uint64(m.upb)+uint64(i), block)
			bits |= b
		}
	}
	if w := m.find(set, tag); w >= 0 {
		if m.pvs[set][w]&bits != bits {
			m.pvs[set][w] |= bits
			m.count.EJWrites++
		}
		m.touch(set, w)
		return
	}
	w := m.victim(set)
	m.tags[set][w], m.pvs[set][w] = tag, bits
	m.touch(set, w)
	m.count.EJWrites++
}

func (m *refExclude) fill(unit, block uint64) {
	set, tag, bit := m.split(unit, block)
	if w := m.find(set, tag); w >= 0 && m.pvs[set][w]&bit != 0 {
		m.pvs[set][w] &^= bit
		m.count.EJWrites++
	}
}

// refWindow returns the (unit, block) pairs of the address window the
// exactness test draws from: every unit whose tracked address falls in
// one of a few sets with a tag below tags, so each set sees more
// distinct tags than it has ways and replacement runs constantly.
func refWindow(cfg ExcludeConfig, upb int, sets []int, tags uint64) (units, blocks []uint64) {
	for _, s := range sets {
		for tag := uint64(0); tag < tags; tag++ {
			if cfg.Vector == 1 {
				block := tag*uint64(cfg.Sets) + uint64(s)
				for i := 0; i < upb; i++ {
					units = append(units, block*uint64(upb)+uint64(i))
					blocks = append(blocks, block)
				}
				continue
			}
			base := (tag*uint64(cfg.Sets) + uint64(s)) * uint64(cfg.Vector)
			for b := uint64(0); b < uint64(cfg.Vector); b++ {
				units = append(units, base+b)
				blocks = append(blocks, (base+b)/uint64(upb))
			}
		}
	}
	return units, blocks
}

// TestExcludeMatchesReferenceLRU drives Exclude and the rank-ordered
// reference with the same random event streams over random geometries
// and compares every probe answer, every Peek over the address window,
// the units Claims enumerates and the counters after every event: the
// timestamp LRU, the victim picked during the lookup scan and the
// one-shot probe memo must make exactly the reference's choices.
func TestExcludeMatchesReferenceLRU(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		upb := 1 << r.Intn(3) // 1, 2, 4 units per block
		cfg := randExcludeConfig(uint8(r.Intn(256)), uint8(r.Intn(256)), uint8(r.Intn(256)))
		if cfg.Vector > 1 && cfg.Vector < upb {
			cfg.Vector = upb
		}
		var sets []int
		for _, s := range r.Perm(cfg.Sets) {
			if len(sets) == 3 {
				break
			}
			sets = append(sets, s)
		}
		units, blocks := refWindow(cfg, upb, sets, uint64(2*cfg.Ways+1))

		e, m := NewExclude(cfg, upb), newRefExclude(cfg, upb)
		for step := 0; step < 500; step++ {
			i := r.Intn(len(units))
			u, blk := units[i], blocks[i]
			op := r.Intn(16)
			switch {
			case op < 7: // a snoop: probe, and on a miss record it (the memo path)
				got, want := e.Probe(u, blk), m.probe(u, blk)
				if got != want {
					t.Fatalf("seed %d %s step %d: Probe(%#x) = %v, reference %v", seed, cfg.Name(), step, u, got, want)
				}
				if !got && r.Intn(4) != 0 {
					absent := r.Intn(2) == 0
					e.SnoopMiss(u, blk, absent)
					m.snoopMiss(u, blk, absent)
				}
			case op < 10: // a snoop miss with no probe just before it
				absent := r.Intn(2) == 0
				e.SnoopMiss(u, blk, absent)
				m.snoopMiss(u, blk, absent)
			case op < 15:
				e.Fill(u, blk)
				m.fill(u, blk)
			default:
				if r.Intn(20) == 0 {
					e.Reset()
					m.reset()
				} else { // a probe whose memo a different address consumes
					j := r.Intn(len(units))
					e.Probe(u, blk)
					m.probe(u, blk)
					absent := r.Intn(2) == 0
					e.SnoopMiss(units[j], blocks[j], absent)
					m.snoopMiss(units[j], blocks[j], absent)
				}
			}
			claimed := map[uint64]bool{}
			e.Claims(func(u uint64) bool {
				if claimed[u] {
					t.Fatalf("seed %d %s step %d: Claims yields %#x twice", seed, cfg.Name(), step, u)
				}
				claimed[u] = true
				return true
			})
			want := 0
			for k, wu := range units {
				got := m.peek(wu, blocks[k])
				if e.Peek(wu, blocks[k]) != got || claimed[wu] != got {
					t.Fatalf("seed %d %s step %d: unit %#x: Peek %v, claimed %v, reference %v",
						seed, cfg.Name(), step, wu, e.Peek(wu, blocks[k]), claimed[wu], got)
				}
				if got {
					want++
				}
			}
			if len(claimed) != want {
				t.Fatalf("seed %d %s step %d: Claims yields %d units, reference claims %d", seed, cfg.Name(), step, len(claimed), want)
			}
			if got, want := e.Counts(), m.count; got != want {
				t.Fatalf("seed %d %s step %d: counts %+v, reference %+v", seed, cfg.Name(), step, got, want)
			}
		}
	}
}
