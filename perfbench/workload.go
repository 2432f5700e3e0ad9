package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"

	"repro/internal/bench"
)

// Shapes of the generated programs. The cold workloads use the sizes
// whose phase split the workload was chosen for; the serving workloads
// use a smaller win-move game so a mutation's rebase stays in the
// millisecond range and the mutation stream is long enough for a p99.
const (
	coldComponents  = 400 // bench.UpdateFamily(400, 50): 20k EDB facts
	serveComponents = 160 // bench.UpdateFamily(160, 50): 8k EDB facts
	chainLen        = 50
	ladderWidth     = 400 // bench.LadderFamily(400, 34)
	ladderLevels    = 34

	// cutNode is the mid-chain edge nC_25 -> nC_26 that serve-mixed
	// toggles. 25 is odd, so toggling it flips win(nC_I) for every I <= 25.
	cutNode = 25
	// selectEvery makes every fifth key by popularity rank (ranks 4, 9,
	// 14, ...) a /select instead of a /query. Assigning the form by rank
	// and not by node keeps the mix of forms the same for every seed:
	// the most popular key alone draws a tenth of the requests. Selects
	// stay a minority of the reads, so the median read is a /query
	// (README.md gives the measured split).
	selectEvery = 5
	// zipfS is the exponent of the key popularity law: 0.99, the
	// default request distribution of YCSB (Cooper et al., "Benchmarking
	// Cloud Serving Systems with YCSB", SoCC 2010).
	zipfS = 0.99
	// mutateShare is serve-mixed's share of requests that are mutations.
	mutateShare = 0.10
	// clients is the number of closed-loop clients and of connections.
	clients = 2
)

// shuffledProgram returns src with its fact lines in a seeded order
// after its rule lines: the same program, so answers do not depend on
// the seed, but the seed is the only source of what the program sees.
func shuffledProgram(src string, seed uint64) string {
	lines := strings.Split(strings.TrimSpace(src), "\n")
	var rules, facts []string
	for _, l := range lines {
		if strings.Contains(l, "->") {
			rules = append(rules, l)
		} else {
			facts = append(facts, l)
		}
	}
	r := rand.New(rand.NewPCG(seed, 0x70726f67))
	r.Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
	return strings.Join(rules, "\n") + "\n" + strings.Join(facts, "\n") + "\n"
}

func datalogProgram(components int, seed uint64) string {
	return shuffledProgram(bench.UpdateFamily(components, chainLen), seed)
}

func ladderProgram(seed uint64) string {
	return shuffledProgram(bench.LadderFamily(ladderWidth, ladderLevels), seed)
}

func node(c, i int) string { return fmt.Sprintf("n%d_%d", c, i) }

// game is the answer oracle of bench.UpdateFamily: k disjoint chains
// nC_0 -> ... -> nC_50 under move(X,Y), not win(Y) -> win(X), each with
// its edge at cutNode present or retracted. On a chain, win(v) is true
// iff the distance from v to the chain's dead end is odd, so every
// answer has a closed form.
type game struct {
	cut map[int]bool // component -> edge nC_25 -> nC_26 retracted
}

func newGame() *game { return &game{cut: map[int]bool{}} }

// deadEnd is the node the walk from nC_i ends at.
func (g *game) deadEnd(c, i int) int {
	if g.cut[c] && i <= cutNode {
		return cutNode
	}
	return chainLen
}

func (g *game) win(c, i int) bool { return (g.deadEnd(c, i)-i)%2 == 1 }

// hasEdge reports whether move(nC_i, nC_i+1) is in the database.
func (g *game) hasEdge(c, i int) bool {
	return i >= 0 && i < chainLen && !(g.cut[c] && i == cutNode)
}

// selectAnswer is the relation of "? move(nC_i, X), not win(X).": the
// successor of nC_i when that edge exists and the successor loses.
func (g *game) selectAnswer(c, i int) [][]string {
	if g.hasEdge(c, i) && !g.win(c, i+1) {
		return [][]string{{node(c, i+1)}}
	}
	return [][]string{}
}

// key is one distinct read: a ground win query or a select with one
// bound constant, on node i of component c.
type key struct {
	c, i int
	sel  bool
}

func (k key) text() string {
	if k.sel {
		return fmt.Sprintf("? move(%s, X), not win(X).", node(k.c, k.i))
	}
	return fmt.Sprintf("? win(%s).", node(k.c, k.i))
}

// opKind is the class of one request or operation.
type opKind int

const (
	opCold opKind = iota
	opRead
	opMutate
)

func (k opKind) String() string { return [...]string{"cold", "read", "mutate"}[k] }

// op is one generated operation. For a read, k is the key; for a
// mutation, k.c names the component whose cut edge is toggled.
type op struct {
	kind opKind
	k    key
}

// stream generates one client's operations. Client id owns the
// components c with c % clients == id, so its reads and writes never
// touch another client's components and its oracle stays exact under
// read-your-writes.
type stream struct {
	r      *rand.Rand
	zipf   *zipfian
	keys   []key
	mutate float64
	game   *game
}

func newStream(seed uint64, id, components int, mutate float64) *stream {
	r := rand.New(rand.NewPCG(seed, uint64(id)+1))
	var keys []key
	for c := id; c < components; c += clients {
		for i := 0; i < chainLen; i++ {
			keys = append(keys, key{c: c, i: i})
		}
	}
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for rank := range keys {
		keys[rank].sel = rank%selectEvery == selectEvery-1
	}
	return &stream{
		r:      r,
		zipf:   newZipfian(r, zipfS, len(keys)),
		keys:   keys,
		mutate: mutate,
		game:   newGame(),
	}
}

func (s *stream) next() op {
	k := s.keys[s.zipf.next()]
	if s.mutate > 0 && s.r.Float64() < s.mutate {
		return op{kind: opMutate, k: key{c: k.c}}
	}
	return op{kind: opRead, k: k}
}

// zipfian draws ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s by inverting the cumulative weights. Unlike rand.Zipf it
// takes any s > 0.
type zipfian struct {
	r   *rand.Rand
	cdf []float64
}

func newZipfian(r *rand.Rand, s float64, n int) *zipfian {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipfian{r: r, cdf: cdf}
}

func (z *zipfian) next() int {
	return min(sort.SearchFloat64s(z.cdf, z.r.Float64()), len(z.cdf)-1)
}

// drawWinQuery draws cold-datalog's query: a uniform win(nC_I) and its answer.
func drawWinQuery(r *rand.Rand) (string, bool) {
	c, i := r.IntN(coldComponents), r.IntN(chainLen)
	return fmt.Sprintf("? win(%s).", node(c, i)), newGame().win(c, i)
}
