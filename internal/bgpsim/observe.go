package bgpsim

// Observation helpers for the timeline engine (internal/timeline):
// table-wide reachability counts for per-tick series, read from the
// per-column counters in O(prefixes), and a fingerprint of the exact routing
// state — index chains and arena lengths included — that certifies Revert
// restored the pre-Apply state index-exactly.

// Size returns the table dimensions: the number of ASes and of prefix
// columns currently converged.
func (rt *RoutingTables) Size() (ases, prefixes int) {
	return len(rt.asns), len(rt.prefixes)
}

// ReachableCells counts the routed cells of the table — the (AS, prefix)
// pairs holding a selected route — alongside the total cell count. The ratio
// is the global reachability share the temporal experiments chart per tick.
// Each column keeps its own count current on every cell write, so this sums
// one counter per prefix instead of scanning the table.
func (rt *RoutingTables) ReachableCells() (reachable, total int) {
	for i := range rt.cols {
		reachable += rt.cols[i].reach
	}
	return reachable, len(rt.asns) * len(rt.cols)
}

// StateFingerprint hashes the live routing state: the LIFO depth, the
// interned ASNs and prefixes with their enumeration order, every cell's
// (learned, plen, head index), and every column's arena length. Heads are
// arena indices, not addresses, so a chain rebuilt with identical hops in a
// different slot fingerprints differently, while two states built the same
// way — in one process or in two, at any worker count — fingerprint equal.
// Equal fingerprints certify the tables are index-exactly identical, the
// guarantee Revert makes and the timeline unwind property pins.
func (c *Converged) StateFingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mixByte := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	mixStr := func(s string) {
		for i := 0; i < len(s); i++ {
			mixByte(s[i])
		}
		h ^= uint64(len(s)) ^ 0xff
		h *= prime64
	}
	mixInt := func(v int64) {
		for k := 0; k < 64; k += 8 {
			mixByte(byte(v >> k))
		}
	}
	mixInt(int64(c.applied))
	mixInt(int64(len(c.rt.asns)))
	for _, n := range c.rt.asns {
		mixInt(int64(n))
	}
	mixInt(int64(len(c.rt.prefixes)))
	for _, p := range c.rt.prefixes {
		mixStr(p)
	}
	for _, o := range c.rt.order {
		mixInt(int64(o))
	}
	for i := range c.rt.cols {
		col := &c.rt.cols[i]
		mixInt(int64(len(col.nodes)))
		for j := range col.cells {
			en := &col.cells[j]
			mixByte(byte(en.learned))
			mixInt(int64(en.plen))
			mixInt(int64(en.head))
		}
	}
	return h
}
