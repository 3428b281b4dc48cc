// Package workload is the benchmark's seeded operation generator and the
// vocabulary the end-to-end driver and the traced replay share: networks
// as seen from their configuration files, queries, config edits,
// canonical answers, the percentile rule and per-layer row composition.
//
// It imports only the standard library, so the driver, which must keep
// measuring whatever happens to the program's internal packages, never
// depends on them through this package.
package workload

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Endpoints are the query kinds an operator asks of a network, in the
// order an edit cycle's answers and a setup's first answers ask them.
// reach_block is /reach with a src/dst pair; reach is the network-wide view.
var Endpoints = []string{"summary", "pathway", "reach", "reach_block", "whatif"}

// Net is one served network as the generator sees it: its routers and
// the address blocks their interfaces sit in, read from the
// configuration files alone.
type Net struct {
	Name    string
	Routers []string          // hostnames, sorted
	Files   map[string]string // hostname -> configuration file name
	// Blocks are the distinct /24s covering interface addresses, sorted.
	Blocks []string
	// Home maps a router to the /24 of its first interface address.
	Home map[string]string
}

// LoadNet reads one network's configuration directory. A router's name
// is its `hostname` line, or the file name without extension.
func LoadNet(name, dir string) (*Net, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	n := &Net{Name: name, Files: map[string]string{}, Home: map[string]string{}}
	blocks := map[string]bool{}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		host, homes, err := scanConfig(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		if host == "" {
			host = strings.TrimSuffix(e.Name(), filepath.Ext(e.Name()))
		}
		n.Routers = append(n.Routers, host)
		n.Files[host] = e.Name()
		if len(homes) > 0 {
			n.Home[host] = homes[0]
		}
		for _, b := range homes {
			blocks[b] = true
		}
	}
	if len(n.Routers) == 0 {
		return nil, fmt.Errorf("workload: %s holds no configuration files", dir)
	}
	sort.Strings(n.Routers)
	for b := range blocks {
		n.Blocks = append(n.Blocks, b)
	}
	sort.Strings(n.Blocks)
	if len(n.Blocks) < 2 {
		return nil, fmt.Errorf("workload: %s has fewer than two address blocks", dir)
	}
	return n, nil
}

// scanConfig returns a configuration's hostname and the /24 of every
// interface address, in file order.
func scanConfig(path string) (string, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	var host string
	var homes []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) == 2 && fields[0] == "hostname":
			host = fields[1]
		case len(fields) >= 4 && fields[0] == "ip" && fields[1] == "address":
			if b, ok := block24(fields[2]); ok {
				homes = append(homes, b)
			}
		}
	}
	return host, homes, sc.Err()
}

// block24 returns the /24 covering a dotted-quad address.
func block24(addr string) (string, bool) {
	var a, b, c, d int
	if _, err := fmt.Sscanf(addr, "%d.%d.%d.%d", &a, &b, &c, &d); err != nil {
		return "", false
	}
	for _, x := range []int{a, b, c, d} {
		if x < 0 || x > 255 {
			return "", false
		}
	}
	return fmt.Sprintf("%d.%d.%d.0/24", a, b, c), true
}

// Query is one read-only request against one network.
type Query struct {
	Net      string `json:"net"`
	Endpoint string `json:"endpoint"`
	Router   string `json:"router,omitempty"`
	Src      string `json:"src,omitempty"`
	Dst      string `json:"dst,omitempty"`
}

// Path is the query's URL path and query string on the daemon.
func (q Query) Path() string {
	base := "/v1/nets/" + q.Net + "/"
	switch q.Endpoint {
	case "pathway":
		return base + "pathway?router=" + q.Router
	case "reach_block":
		return base + "reach?src=" + q.Src + "&dst=" + q.Dst
	}
	return base + q.Endpoint
}

// Edit is one configuration change: a static route to a fresh /32 in one
// router's file, replacing the route an earlier edit put there. The
// route is routing-relevant and never repeats within a run, so no
// snapshot, memo or cache can replay an older generation; replacing it
// keeps the network the same size however many edits a run makes.
type Edit struct {
	Net    string `json:"net"`
	Router string `json:"router"`
	File   string `json:"file"`
	Route  string `json:"route"` // dotted-quad host address
}

// Line is the configuration line the edit appends.
func (e Edit) Line() string {
	return "ip route " + e.Route + " 255.255.255.255 Null0"
}

// Apply rewrites the router's file under netDir: it drops any line an
// earlier edit added and appends the edit's line.
func (e Edit) Apply(netDir string) error {
	path := filepath.Join(netDir, e.File)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var b strings.Builder
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if line != "" && !isEditLine(strings.TrimSuffix(line, "\n")) {
			b.WriteString(line)
		}
	}
	if s := b.String(); s != "" && !strings.HasSuffix(s, "\n") {
		b.WriteByte('\n')
	}
	b.WriteString(e.Line() + "\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// isEditLine reports whether a configuration line is an edit's: a /32
// route to Null0 in 198.18.0.0/15, the benchmarking range, which the
// corpus networks never use.
func isEditLine(line string) bool {
	return (strings.HasPrefix(line, "ip route 198.18.") || strings.HasPrefix(line, "ip route 198.19.")) &&
		strings.HasSuffix(line, " 255.255.255.255 Null0")
}

// Answers is the edit cycle's read-back: every endpoint once, with the
// reach of the fresh /32 from the edited router's own block, which the
// new generation must report reachable. The pathway is always the first
// router's, so every cycle and seed reads back the same pathway work.
func (e Edit) Answers(n *Net) []Query {
	return []Query{
		{Net: n.Name, Endpoint: "summary"},
		{Net: n.Name, Endpoint: "pathway", Router: n.Routers[0]},
		{Net: n.Name, Endpoint: "reach"},
		{Net: n.Name, Endpoint: "reach_block", Src: n.Home[e.Router], Dst: e.Route + "/32"},
		{Net: n.Name, Endpoint: "whatif"},
	}
}

// SetupQueries are a network's first answers: every endpoint once.
func SetupQueries(n *Net) []Query {
	return []Query{
		{Net: n.Name, Endpoint: "summary"},
		{Net: n.Name, Endpoint: "pathway", Router: n.Routers[0]},
		{Net: n.Name, Endpoint: "reach"},
		{Net: n.Name, Endpoint: "reach_block", Src: n.Blocks[0], Dst: n.Blocks[len(n.Blocks)-1]},
		{Net: n.Name, Endpoint: "whatif"},
	}
}

// Role is what one closed-loop client of a workload does.
type Role struct {
	// EditEvery makes every EditEvery-th operation an edit cycle on the
	// workload's edit network; 1 makes every operation one, 0 none.
	EditEvery int
}

// Spec describes one workload's traffic.
type Spec struct {
	Name    string
	Nets    []string // served networks, sorted
	EditNet string   // the network edit cycles rewrite
	Clients []Role
	// Restart makes setup a restart from snapshots an untimed prep run
	// wrote, instead of a cold start.
	Restart bool
	// Warmup is how long, in seconds, the clients run their loops before
	// the timed phase starts: answers are checked, nothing is timed. It
	// lets the query cache fill and the setup's garbage be collected.
	Warmup int
	// TailPct is the percentile query_tail_ms reports. It is fixed per
	// workload, so two runs always compare the same statistic; a run
	// whose pool lacks MinBeyond samples above it fails.
	TailPct int
	// ReplayEdits bounds the edit cycles the traced replay redoes:
	// enough generations for stable rows, and on the fleet enough to
	// reach past the warm-up's edits into the timed phase, whose queries
	// alone are replayed; few enough to finish well within a run's time
	// limit.
	ReplayEdits int
}

// Specs are the benchmark's workloads. The corpus each one serves is
// written by the driver; see the benchmark's README for why each exists.
var Specs = []Spec{
	{Name: "net5-edit-reload", Nets: []string{"net5"}, EditNet: "net5",
		Clients: []Role{{EditEvery: 1}}, TailPct: 50, ReplayEdits: 3},
	// The fleet's edits rewrite the six-router example network, whose
	// reloads cost milliseconds. One client: two clients and the daemon
	// oversubscribe a two-core host, and the query figures then measure
	// the scheduler's queueing more than the daemon.
	{Name: "fleet-query-mix", Nets: []string{"example", "net15", "net5"}, EditNet: "example",
		Clients: []Role{{EditEvery: 1000}}, Restart: true, Warmup: 5, TailPct: 90, ReplayEdits: 100},
}

// SpecFor looks a workload up by name.
func SpecFor(name string) (Spec, bool) {
	for _, s := range Specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// OpKind discriminates an Op.
type OpKind uint8

const (
	QueryOp OpKind = iota
	EditOp
)

// Op is one closed-loop client operation: a query, or an edit cycle
// (write the edit, reload, read every endpoint back).
type Op struct {
	Kind  OpKind
	Query Query
	Edit  Edit
}

// String renders the operation canonically; equal seeds give
// byte-identical sequences of these.
func (o Op) String() string {
	if o.Kind == EditOp {
		return "edit " + o.Edit.Net + " " + o.Edit.Router + " " + o.Edit.Line()
	}
	return "query " + o.Query.Path()
}

// Generator yields one client's deterministic operation sequence.
type Generator struct {
	role    Role
	nets    []*Net
	editNet *Net
	rng     *rand.Rand
	n       int
	edits   int
	base    uint32 // first fresh edit address
}

// NewGenerator builds client's generator for spec over the loaded nets
// (one per spec.Nets entry, any order).
func NewGenerator(spec Spec, nets []*Net, client int, seed int64) (*Generator, error) {
	if client < 0 || client >= len(spec.Clients) {
		return nil, fmt.Errorf("workload: %s has no client %d", spec.Name, client)
	}
	byName := map[string]*Net{}
	for _, n := range nets {
		byName[n.Name] = n
	}
	g := &Generator{
		role: spec.Clients[client],
		rng:  rand.New(rand.NewPCG(uint64(seed), uint64(client)+1)),
		// 198.18.0.0/15 is the benchmarking range; a seed-dependent
		// offset keeps the /32s of different seeds apart.
		base: uint32(198)<<24 | uint32(18)<<16 | uint32(uint64(seed)*2654435761%65536),
	}
	for _, name := range spec.Nets {
		n := byName[name]
		if n == nil {
			return nil, fmt.Errorf("workload: network %s not loaded", name)
		}
		g.nets = append(g.nets, n)
	}
	if len(g.nets) == 0 {
		return nil, fmt.Errorf("workload: client %d of %s has no network to query", client, spec.Name)
	}
	g.editNet = byName[spec.EditNet]
	if g.role.EditEvery > 0 && g.editNet == nil {
		return nil, fmt.Errorf("workload: edit network %s not loaded", spec.EditNet)
	}
	return g, nil
}

// Next returns the client's next operation.
func (g *Generator) Next() Op {
	g.n++
	if every := g.role.EditEvery; every > 0 && g.n%every == 0 {
		return Op{Kind: EditOp, Edit: g.nextEdit()}
	}
	return Op{Kind: QueryOp, Query: g.nextQuery()}
}

func (g *Generator) nextEdit() Edit {
	n := g.editNet
	router := n.Routers[g.rng.IntN(len(n.Routers))]
	var ip [4]byte
	binary.BigEndian.PutUint32(ip[:], g.base+uint32(g.edits))
	g.edits++
	return Edit{Net: n.Name, Router: router, File: n.Files[router],
		Route: fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])}
}

// nextQuery draws the query mix: a network, then one of the Endpoints,
// both uniformly. Nothing in the repository records how operators weigh
// the endpoints, so none is favoured. A pathway asks for any router and
// a block reach for any ordered pair of distinct blocks, so a large
// network's question population outgrows the daemon's query cache and
// the layers behind those endpoints keep doing work.
func (g *Generator) nextQuery() Query {
	n := g.nets[g.rng.IntN(len(g.nets))]
	q := Query{Net: n.Name, Endpoint: Endpoints[g.rng.IntN(len(Endpoints))]}
	switch q.Endpoint {
	case "pathway":
		q.Router = n.Routers[g.rng.IntN(len(n.Routers))]
	case "reach_block":
		i := g.rng.IntN(len(n.Blocks))
		j := g.rng.IntN(len(n.Blocks) - 1)
		if j >= i {
			j++
		}
		q.Src, q.Dst = n.Blocks[i], n.Blocks[j]
	}
	return q
}
