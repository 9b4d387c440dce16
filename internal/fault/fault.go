// Package fault implements deterministic, seed-driven fault injection
// for the embedded-ring interconnect: dropping, duplicating, delaying
// and stalling snoop-message segments according to a declarative plan.
//
// Faults model a lossy or congested ring, not memory or torus errors:
// every injected fault hits a ring link segment between two gateways.
// Decisions are a pure function of the plan and a sequential segment
// counter, so a run with a fixed plan is bit-identical across repeats
// (the injector is only consulted from the engine's transmit merge
// stage, whose order is fixed).
package fault

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrPlan is the sentinel wrapped by every fault-plan validation and
// parse failure, matchable with errors.Is.
var ErrPlan = errors.New("fault: bad fault plan")

// Kind is a fault class.
type Kind int

const (
	// Drop loses the message segment on the link. The requester is
	// NACKed through the link-level CRC model and squashes-and-retries;
	// the per-transaction deadline covers the case where even the NACK
	// context is gone.
	Drop Kind = iota
	// Dup delivers a redundant copy of the segment one occupancy slot
	// behind the original; receivers discard it by sequence check, so
	// it costs link bandwidth and delivery work only.
	Dup
	// Delay adds jitter to the segment's arrival: 1..Delay extra cycles,
	// which can reorder split request/reply halves when it exceeds the
	// inter-segment spacing.
	Delay
	// Stall models a stalled gateway: every matched segment arriving at
	// the target node inside [From, Until) is held until cycle Until.
	Stall

	numKinds
)

// String returns the plan-spec keyword for the kind.
func (k Kind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Dup:
		return "dup"
	case Delay:
		return "delay"
	case Stall:
		return "stall"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// parseKind maps a spec keyword to its Kind.
func parseKind(s string) (Kind, error) {
	switch s {
	case "drop":
		return Drop, nil
	case "dup":
		return Dup, nil
	case "delay":
		return Delay, nil
	case "stall":
		return Stall, nil
	default:
		return 0, fmt.Errorf("%w: unknown kind %q", ErrPlan, s)
	}
}

// Rule is one fault source. Zero values of the targeting fields mean
// "any": Ring and Node use -1 for any (ParsePlan defaults them), and an
// Until of zero leaves the window open-ended.
type Rule struct {
	Kind Kind
	// Ring restricts the rule to one embedded ring (-1: all rings).
	Ring int
	// Node targets a link or gateway (-1: all). For Drop/Dup/Delay it is
	// the link's upstream (sending) node; for Stall it is the receiving
	// node whose gateway stalls.
	Node int
	// Rate is the per-segment fault probability in [0, 1].
	Rate float64
	// From and Until bound the active window in cycles, matched against
	// the segment's departure (Drop/Dup/Delay) or arrival (Stall). An
	// Until of zero means "until the end of the run"; Stall requires a
	// bounded window or it could hold segments forever.
	From, Until uint64
	// Seed decorrelates this rule's coin flips from other rules'.
	Seed uint64
	// Delay is the maximum jitter in cycles (Delay kind only).
	Delay uint64
}

// matches reports whether the rule applies to a segment. when is the
// departure cycle for Drop/Dup/Delay and the arrival cycle for Stall;
// node follows the same convention (sender vs receiver).
func (r *Rule) matches(when uint64, ringIdx, node int) bool {
	if r.Ring >= 0 && r.Ring != ringIdx {
		return false
	}
	if r.Node >= 0 && r.Node != node {
		return false
	}
	if when < r.From {
		return false
	}
	if r.Until > 0 && when >= r.Until {
		return false
	}
	return true
}

// Plan is a complete fault-injection configuration.
type Plan struct {
	Rules []Rule
	// MaxRetries bounds timeout-driven retransmit attempts per access
	// before the engine fails the run (0: the default, 100).
	MaxRetries int
}

// DefaultMaxRetries is the retransmit bound applied when a plan leaves
// MaxRetries zero. It is sized for the documented 10%-drop envelope: an
// attempt whose round trip crosses ~16 faulted segments survives with
// probability ~0.18 there, so ~60 consecutive losses is already a
// once-per-million-transactions event; 100 keeps completion certain
// while still bounding a genuinely dead link to a finite failure.
const DefaultMaxRetries = 100

// RetryLimit returns the effective retransmit bound.
func (p *Plan) RetryLimit() int {
	if p == nil || p.MaxRetries <= 0 {
		return DefaultMaxRetries
	}
	return p.MaxRetries
}

// Enabled reports whether the plan injects anything.
func (p *Plan) Enabled() bool { return p != nil && len(p.Rules) > 0 }

// Validate checks the plan, wrapping ErrPlan on failure.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("%w: negative MaxRetries %d", ErrPlan, p.MaxRetries)
	}
	for i := range p.Rules {
		r := &p.Rules[i]
		if r.Kind < 0 || r.Kind >= numKinds {
			return fmt.Errorf("%w: rule %d: unknown kind %d", ErrPlan, i, int(r.Kind))
		}
		if r.Rate < 0 || r.Rate > 1 {
			return fmt.Errorf("%w: rule %d: rate %g outside [0,1]", ErrPlan, i, r.Rate)
		}
		if r.Ring < -1 || r.Node < -1 {
			return fmt.Errorf("%w: rule %d: negative target (ring %d, node %d)", ErrPlan, i, r.Ring, r.Node)
		}
		if r.Until > 0 && r.Until <= r.From {
			return fmt.Errorf("%w: rule %d: empty window [%d,%d)", ErrPlan, i, r.From, r.Until)
		}
		switch r.Kind {
		case Delay:
			if r.Delay == 0 {
				return fmt.Errorf("%w: rule %d: delay kind needs delay > 0", ErrPlan, i)
			}
		case Stall:
			if r.Until == 0 {
				return fmt.Errorf("%w: rule %d: stall needs a bounded window (until > 0)", ErrPlan, i)
			}
		}
	}
	return nil
}

// ParsePlan parses the -faults command-line syntax: rules separated by
// ';', each rule a comma-separated list of key=value fields:
//
//	kind=drop,rate=0.05,ring=0,node=2,from=1000,until=90000,seed=3
//	kind=delay,rate=0.1,delay=80;kind=stall,node=1,from=0,until=50000
//
// kind is required. rate defaults to 1. ring and node default to -1
// (any). Unset seed leaves rules decorrelated by their index. The
// returned plan is validated.
func ParsePlan(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("%w: empty spec", ErrPlan)
	}
	p := &Plan{}
	for ri, ruleSpec := range strings.Split(spec, ";") {
		ruleSpec = strings.TrimSpace(ruleSpec)
		if ruleSpec == "" {
			return nil, fmt.Errorf("%w: rule %d is empty", ErrPlan, ri)
		}
		r := Rule{Ring: -1, Node: -1, Rate: 1}
		haveKind := false
		for _, field := range strings.Split(ruleSpec, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
			if !ok {
				return nil, fmt.Errorf("%w: rule %d: field %q is not key=value", ErrPlan, ri, field)
			}
			var err error
			switch key {
			case "kind":
				r.Kind, err = parseKind(val)
				haveKind = err == nil
			case "rate":
				r.Rate, err = strconv.ParseFloat(val, 64)
			case "ring":
				r.Ring, err = strconv.Atoi(val)
			case "node":
				r.Node, err = strconv.Atoi(val)
			case "from":
				r.From, err = strconv.ParseUint(val, 10, 64)
			case "until":
				r.Until, err = strconv.ParseUint(val, 10, 64)
			case "seed":
				r.Seed, err = strconv.ParseUint(val, 10, 64)
			case "delay":
				r.Delay, err = strconv.ParseUint(val, 10, 64)
			default:
				return nil, fmt.Errorf("%w: rule %d: unknown field %q", ErrPlan, ri, key)
			}
			if err != nil {
				if errors.Is(err, ErrPlan) {
					return nil, err
				}
				return nil, fmt.Errorf("%w: rule %d: bad %s value %q", ErrPlan, ri, key, val)
			}
		}
		if !haveKind {
			return nil, fmt.Errorf("%w: rule %d: missing kind", ErrPlan, ri)
		}
		p.Rules = append(p.Rules, r)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Action is the injector's verdict for one segment. Delay and Stall
// cycles both stretch the arrival; they are reported separately so the
// engine can count them apart.
type Action struct {
	Drop  bool
	Dup   bool
	Delay uint64
	Stall uint64
}

// Injector evaluates a validated plan against transmitted segments. It
// keeps one sequential counter; callers must consult it from exactly one
// goroutine in a deterministic order.
type Injector struct {
	rules []Rule
	seeds []uint64 // per-rule pre-mixed seed bases
	seq   uint64
}

// NewInjector builds an injector for a plan (which must have passed
// Validate).
func NewInjector(p *Plan) *Injector {
	inj := &Injector{rules: append([]Rule(nil), p.Rules...)}
	inj.seeds = make([]uint64, len(inj.rules))
	for i := range inj.rules {
		// Mix the rule index in so identical rules with the zero seed
		// still flip independent coins.
		inj.seeds[i] = mix64(inj.rules[i].Seed ^ (uint64(i+1) * 0x9E3779B97F4A7C15))
	}
	return inj
}

// Inspect evaluates every rule against one arbitrated segment and
// advances the injection sequence. depart/arrive are the segment's link
// occupancy window; from/to are the link's endpoints.
func (inj *Injector) Inspect(depart, arrive uint64, ringIdx, from, to int) Action {
	s := inj.seq
	inj.seq++
	var act Action
	for i := range inj.rules {
		r := &inj.rules[i]
		when, node := depart, from
		if r.Kind == Stall {
			when, node = arrive, to
		}
		if !r.matches(when, ringIdx, node) {
			continue
		}
		h := mix64(inj.seeds[i] ^ mix64(s))
		if !roll(h, r.Rate) {
			continue
		}
		switch r.Kind {
		case Drop:
			act.Drop = true
		case Dup:
			act.Dup = true
		case Delay:
			act.Delay += 1 + mix64(h)%r.Delay
		case Stall:
			if arrive < r.Until {
				act.Stall += r.Until - arrive
			}
		}
	}
	return act
}

// mix64 is the splitmix64 finalizer: a fast, well-distributed stateless
// hash, the standard choice for reproducible simulation randomness.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// roll reports whether a hash falls below the rate threshold. The top 53
// bits map to [0, 1) exactly in a float64, so the comparison is
// bit-reproducible across platforms.
func roll(h uint64, rate float64) bool {
	if rate >= 1 {
		return true
	}
	return float64(h>>11)*(1.0/(1<<53)) < rate
}
