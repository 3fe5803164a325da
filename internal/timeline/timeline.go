// Package timeline is the deterministic event-timeline engine: ordered
// streams of at-tick events replayed against live simulation state, emitting
// one observation row per tick. It turns the repository's single-equilibrium
// simulators into the stories the paper actually tells — Telmex re-juggling
// ASNs as regulators respond, community-network nodes failing and being
// repaired, IXP membership shifting under a staged mandatory-peering law.
//
// The engine is three small pieces:
//
//   - Event / Stream (this file): a tick-stamped event with one payload per
//     kind, and an ordered sequence of them with a horizon. Same-tick events
//     apply in a documented canonical order (see Canonicalize), so a stream
//     is a set of (tick, event) pairs with fully deterministic semantics —
//     the order they were generated or written in a file never matters.
//   - Machines (machine.go, bgp.go, cnmachine.go, ixpmachine.go): live state
//     that knows how to apply the events it understands and to observe a row
//     of per-tick metrics. The BGP machine drives bgpsim's incremental
//     engine (falling back to cold column re-convergence exactly where the
//     uniqueness gate demands — that logic lives in bgpsim, not here); the
//     CN and IXP machines drive the churn hooks those packages expose.
//   - ReplayCtx (machine.go): the loop — canonicalize, validate, apply each
//     tick's events, observe, collect a time-series that converts to an
//     experiment.Result table.
//
// Streams have a text format (parse.go): `@<tick> <event>` lines after an
// optional base BGP topology, strictly parsed, with FormatStream/FormatDoc
// as exact inverses — every timeline is a replayable artifact.
package timeline

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/bgpsim"
	"repro/internal/ixp"
)

// Kind enumerates the event kinds a stream can carry.
type Kind uint8

const (
	// KindBGP applies a bgpsim delta (withdraw/announce/link+/link-/leak)
	// through the incremental engine. Payload: Delta.
	KindBGP Kind = iota
	// KindCNFail takes a community-network member down. Payload: Node.
	KindCNFail
	// KindCNRepair brings a failed member back up. Payload: Node.
	KindCNRepair
	// KindIXPJoin adds an AS to an exchange. Payload: Name, ASN, Policy.
	KindIXPJoin
	// KindIXPLeave removes an AS from an exchange, retracting its sessions
	// there. Payload: Name, ASN.
	KindIXPLeave
	// KindRegulate enacts mandatory peering at the IXPs of a country.
	// Payload: Name (the country code).
	KindRegulate
	// KindCNDemand sets the community network's demand scale to an absolute
	// factor (1 = baseline). Idempotent: replaying the same factor twice is a
	// no-op, which lets cascade rules re-assert it every tick. Payload: Value.
	KindCNDemand
	// KindIXPPressure is the soft form of KindIXPJoin: the AS joins the
	// exchange if it is not already a member, and the event is a no-op if it
	// is. Cascade rules use it so repeated cross-domain pressure (e.g. a
	// routing outage pushing competitors toward an IXP) never trips the
	// strict-membership error a second join would. Payload: Name, ASN, Policy.
	KindIXPPressure
	// KindStakeShift sets the stakeholder population's attitude shift to an
	// absolute offset in [-1, 1] added to every true score (0 = baseline).
	// Idempotent, like KindCNDemand. Payload: Value.
	KindStakeShift
)

// String returns the event-grammar keyword of the kind. BGP events have no
// single keyword — they render as their delta line (see FormatStream).
func (k Kind) String() string {
	switch k {
	case KindBGP:
		return "bgp"
	case KindCNFail:
		return "fail"
	case KindCNRepair:
		return "repair"
	case KindIXPJoin:
		return "join"
	case KindIXPLeave:
		return "leave"
	case KindRegulate:
		return "regulate"
	case KindCNDemand:
		return "demand"
	case KindIXPPressure:
		return "pressure"
	case KindStakeShift:
		return "stake-shift"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one tick-stamped occurrence. Exactly the payload fields of its
// Kind are meaningful; the rest stay zero.
type Event struct {
	At     int
	Kind   Kind
	Delta  bgpsim.Delta      // KindBGP
	Node   int               // KindCNFail, KindCNRepair
	Name   string            // KindIXPJoin/Leave/Pressure: IXP name; KindRegulate: country
	ASN    bgpsim.ASN        // KindIXPJoin, KindIXPLeave, KindIXPPressure
	Policy ixp.PeeringPolicy // KindIXPJoin, KindIXPPressure
	Value  float64           // KindCNDemand, KindStakeShift
	// Prov tags cascade-injected events with the name of the rule that fired
	// them. It is runtime provenance, not grammar: FormatStream drops it, and
	// hand-written streams leave it empty. It participates in the canonical
	// order as the final tie-break so injected events replay deterministically.
	Prov string
}

// validate checks the event's fields independent of any stream or state.
func (e Event) validate() error {
	if e.At < 0 {
		return fmt.Errorf("timeline: negative tick %d", e.At)
	}
	switch e.Kind {
	case KindBGP:
		if e.Delta.Kind > bgpsim.DeltaLeakToggle {
			return fmt.Errorf("timeline: bad delta kind %d", int(e.Delta.Kind))
		}
	case KindCNFail, KindCNRepair:
		if e.Node < 0 {
			return fmt.Errorf("timeline: negative node %d", e.Node)
		}
	case KindIXPJoin, KindIXPLeave, KindIXPPressure:
		if err := validateName(e.Name); err != nil {
			return err
		}
		if e.ASN < 0 {
			return fmt.Errorf("timeline: negative ASN %d", e.ASN)
		}
		if e.Kind != KindIXPLeave && (e.Policy < ixp.Open || e.Policy > ixp.Restrictive) {
			return fmt.Errorf("timeline: bad peering policy %d", int(e.Policy))
		}
	case KindRegulate:
		if err := validateName(e.Name); err != nil {
			return err
		}
	case KindCNDemand:
		if math.IsNaN(e.Value) || e.Value <= 0 || e.Value > MaxDemandScale {
			return fmt.Errorf("timeline: demand scale %v outside (0, %d]", e.Value, MaxDemandScale)
		}
	case KindStakeShift:
		if math.IsNaN(e.Value) || e.Value < -1 || e.Value > 1 {
			return fmt.Errorf("timeline: stake shift %v outside [-1, 1]", e.Value)
		}
	default:
		return fmt.Errorf("timeline: unknown event kind %d", int(e.Kind))
	}
	if e.Prov != "" {
		if err := validateName(e.Prov); err != nil {
			return err
		}
	}
	return nil
}

// validateName bounds the free-text token of join/leave/regulate events so
// it survives the one-token-per-field text format.
func validateName(s string) error {
	if s == "" || len(s) > 64 || strings.ContainsAny(s, " \t\r\n#") || strings.Fields(s)[0] != s {
		return fmt.Errorf("timeline: bad name %q (one token, <= 64 bytes, no '#')", s)
	}
	return nil
}

// less is the canonical event order: ascending tick, then kind, then the
// kind's payload fields, then provenance. Within a tick this is the order
// events APPLY in — the documented semantics, not a display convention. BGP
// deltas sort withdraws before announces (so a prefix can migrate between
// ASes in one tick), link-ups before link-downs, leak toggles last; CN fails
// precede repairs; IXP joins precede leaves; regulation applies after
// membership settles; cross-domain sets (demand, pressure, stake-shift)
// apply after the strict kinds they soften or scale. Ties beyond these
// fields are broken stably by input order.
func less(a, b Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	switch a.Kind {
	case KindBGP:
		if a.Delta != b.Delta {
			return deltaLess(a.Delta, b.Delta)
		}
	case KindCNFail, KindCNRepair:
		if a.Node != b.Node {
			return a.Node < b.Node
		}
	case KindIXPJoin, KindIXPLeave, KindIXPPressure:
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.ASN != b.ASN {
			return a.ASN < b.ASN
		}
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
	case KindRegulate:
		if a.Name != b.Name {
			return a.Name < b.Name
		}
	case KindCNDemand, KindStakeShift:
		if a.Value != b.Value {
			return a.Value < b.Value
		}
	}
	return a.Prov < b.Prov
}

// deltaLess orders BGP deltas: kind (withdraw < announce < link+ < link- <
// leak), then A, B, Prefix, Peer.
func deltaLess(a, b bgpsim.Delta) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.A != b.A {
		return a.A < b.A
	}
	if a.B != b.B {
		return a.B < b.B
	}
	if a.Prefix != b.Prefix {
		return a.Prefix < b.Prefix
	}
	return !a.Peer && b.Peer
}

// Stream limits, bounding what a hostile (fuzzed) document can demand.
// MaxDemandScale bounds KindCNDemand factors — enough for any surge story,
// small enough that scaled demand stays far from float trouble.
const (
	MaxHorizon     = 1 << 16
	MaxEvents      = 4096
	MaxDemandScale = 64
)

// Stream is an ordered event sequence with a horizon: replay covers ticks
// 0..Horizon-1, applying each tick's events before observing it.
type Stream struct {
	Horizon int
	Events  []Event
}

// Canonicalize returns a copy of the stream with events stably sorted into
// the canonical application order (see less). ReplayCtx canonicalizes
// internally, so any permutation of the same event multiset replays
// identically; Canonicalize exists for code that wants the normal form
// itself (FormatStream emits it).
func (s Stream) Canonicalize() Stream {
	out := Stream{Horizon: s.Horizon, Events: append([]Event(nil), s.Events...)}
	sort.SliceStable(out.Events, func(i, j int) bool { return less(out.Events[i], out.Events[j]) })
	return out
}

// Validate checks bounds and per-event fields. It does not require canonical
// order (Canonicalize establishes that) and does not check applicability
// against any state — machines are strict about that at replay time.
func (s Stream) Validate() error {
	if s.Horizon <= 0 || s.Horizon > MaxHorizon {
		return fmt.Errorf("timeline: horizon %d outside [1, %d]", s.Horizon, MaxHorizon)
	}
	if len(s.Events) > MaxEvents {
		return fmt.Errorf("timeline: %d events exceed limit %d", len(s.Events), MaxEvents)
	}
	for i, e := range s.Events {
		if err := e.validate(); err != nil {
			return fmt.Errorf("timeline: event %d: %w", i, err)
		}
		if e.At >= s.Horizon {
			return fmt.Errorf("timeline: event %d at tick %d >= horizon %d", i, e.At, s.Horizon)
		}
	}
	return nil
}

// ErrStreamConflict reports that merged streams carry same-tick events with
// contradictory semantics (see Merge). Returned errors wrap it.
var ErrStreamConflict = errors.New("timeline: conflicting events")

// Merge reconciles streams into one: the set union of their events under the
// longest horizon, canonicalized. Scenario builders use it to overlay
// generated sub-streams (e.g. staged joins plus a regulation date), and
// composed scenarios use it to weave several domains' sub-streams into the
// single stream a Composition replays.
//
// Reconciliation is not a blind union. Exact duplicate events collapse to
// one (streams are sets of (tick, event) pairs), and same-tick events that
// contradict each other — orders no canonical application order can make
// unambiguous — are an error wrapping ErrStreamConflict:
//
//   - fail vs repair of one CN node (the node's up-state after the tick
//     depends on which stream "wins");
//   - withdraw vs announce of one prefix by one origin (a migration between
//     two origins is fine — same origin is a flap with no defined outcome);
//   - link+ vs link- of one edge (peer edges compare undirected);
//   - two leak toggles of one AS (toggles compose by parity, so even the
//     exact-duplicate pair is a contradiction, not a redundancy);
//   - join vs leave of one AS at one exchange;
//   - two demand or stake-shift sets with different values (both are
//     absolute sets — last-writer-wins would depend on merge order);
//   - two regulations of different countries (regulation is modeled as one
//     country's regime per fabric).
func Merge(streams ...Stream) (Stream, error) {
	var out Stream
	for _, s := range streams {
		if s.Horizon > out.Horizon {
			out.Horizon = s.Horizon
		}
		out.Events = append(out.Events, s.Events...)
	}
	out = out.Canonicalize()
	seen := make(map[Event]bool, len(out.Events))
	uniq := out.Events[:0]
	for _, e := range out.Events {
		if e.Kind != KindBGP || e.Delta.Kind != bgpsim.DeltaLeakToggle {
			if seen[e] {
				continue
			}
			seen[e] = true
		}
		uniq = append(uniq, e)
	}
	out.Events = uniq
	if err := findConflict(out.Events); err != nil {
		return Stream{}, err
	}
	return out, nil
}

// findConflict scans canonically ordered events for the same-tick
// contradictions Merge documents. Events are grouped per tick; each group is
// small (MaxEvents bounds the whole stream), so the quadratic pair scan is
// fine and keeps the conflict table readable.
func findConflict(events []Event) error {
	for lo := 0; lo < len(events); {
		hi := lo
		for hi < len(events) && events[hi].At == events[lo].At {
			hi++
		}
		for i := lo; i < hi; i++ {
			for j := i + 1; j < hi; j++ {
				if conflicts(events[i], events[j]) {
					return fmt.Errorf("%w: tick %d: %s vs %s",
						ErrStreamConflict, events[i].At, describeEvent(events[i]), describeEvent(events[j]))
				}
			}
		}
		lo = hi
	}
	return nil
}

// conflicts reports whether two same-tick events contradict each other.
// Provenance is ignored: a cascade-injected event contradicts a scripted one
// just as hard.
func conflicts(a, b Event) bool {
	if a.Kind == KindBGP && b.Kind == KindBGP {
		return deltaConflicts(a.Delta, b.Delta)
	}
	switch {
	case a.Kind == KindCNFail && b.Kind == KindCNRepair,
		a.Kind == KindCNRepair && b.Kind == KindCNFail:
		return a.Node == b.Node
	case a.Kind == KindIXPJoin && b.Kind == KindIXPLeave,
		a.Kind == KindIXPLeave && b.Kind == KindIXPJoin:
		return a.Name == b.Name && a.ASN == b.ASN
	case a.Kind == KindCNDemand && b.Kind == KindCNDemand,
		a.Kind == KindStakeShift && b.Kind == KindStakeShift:
		return a.Value != b.Value
	case a.Kind == KindRegulate && b.Kind == KindRegulate:
		return a.Name != b.Name
	}
	return false
}

// deltaConflicts reports contradictory same-tick BGP deltas.
func deltaConflicts(a, b bgpsim.Delta) bool {
	switch {
	case a.Kind == bgpsim.DeltaWithdraw && b.Kind == bgpsim.DeltaAnnounce,
		a.Kind == bgpsim.DeltaAnnounce && b.Kind == bgpsim.DeltaWithdraw:
		return a.A == b.A && a.Prefix == b.Prefix
	case a.Kind == bgpsim.DeltaLinkUp && b.Kind == bgpsim.DeltaLinkDown,
		a.Kind == bgpsim.DeltaLinkDown && b.Kind == bgpsim.DeltaLinkUp:
		if a.Peer != b.Peer {
			return false
		}
		if a.Peer {
			// Peer edges are undirected; compare both orientations.
			return (a.A == b.A && a.B == b.B) || (a.A == b.B && a.B == b.A)
		}
		return a.A == b.A && a.B == b.B
	case a.Kind == bgpsim.DeltaLeakToggle && b.Kind == bgpsim.DeltaLeakToggle:
		return a.A == b.A
	}
	return false
}

// describeEvent renders an event for conflict errors: the grammar form where
// one exists, a compact kind+payload form otherwise.
func describeEvent(e Event) string {
	switch e.Kind {
	case KindBGP:
		d := e.Delta
		switch d.Kind {
		case bgpsim.DeltaWithdraw, bgpsim.DeltaAnnounce:
			return fmt.Sprintf("%s %d %s", d.Kind, d.A, d.Prefix)
		case bgpsim.DeltaLeakToggle:
			return fmt.Sprintf("leak %d", d.A)
		default:
			kind := "p2c"
			if d.Peer {
				kind = "peer"
			}
			return fmt.Sprintf("%s %s %d %d", d.Kind, kind, d.A, d.B)
		}
	case KindCNFail, KindCNRepair:
		return fmt.Sprintf("%s %d", e.Kind, e.Node)
	case KindIXPJoin, KindIXPPressure:
		return fmt.Sprintf("%s %s %d", e.Kind, e.Name, e.ASN)
	case KindIXPLeave:
		return fmt.Sprintf("leave %s %d", e.Name, e.ASN)
	case KindRegulate:
		return fmt.Sprintf("regulate %s", e.Name)
	default: // KindCNDemand, KindStakeShift
		return fmt.Sprintf("%s %v", e.Kind, e.Value)
	}
}
