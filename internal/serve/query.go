package serve

import (
	"fmt"
	"net/url"
	"sort"
	"strings"

	"routinglens/internal/netaddr"
)

// Query is the validated parameter set of one /v1 request. Parsing is
// strict — unknown parameters, empty values, and out-of-range inputs
// are 400s, not guesses — because a resident daemon's first line of
// defense is refusing garbage before it reaches the analysis layers.
// ParseQuery is the surface FuzzQueryParams drives.
type Query struct {
	Endpoint string // summary | pathway | reach | whatif
	Format   string // "json" (default) or "text"
	// Router is the pathway target (pathway only).
	Router string
	// Src and Dst are the reach blocks; HasBlocks reports whether the
	// pair was given (reach only).
	Src, Dst  netaddr.Prefix
	HasBlocks bool
}

// maxParamLen bounds any single parameter value; longer inputs are
// rejected before they reach hostname lookups or parsers.
const maxParamLen = 256

// queryParams lists the parameters each endpoint accepts.
var queryParams = map[string]map[string]bool{
	"summary": {"format": true},
	"pathway": {"format": true, "router": true},
	"reach":   {"format": true, "src": true, "dst": true},
	"whatif":  {"format": true},
}

// ParseQuery validates the raw query string of one /v1 endpoint request.
// It never panics on any input, and identical input always yields an
// identical result — both properties are fuzzed.
func ParseQuery(endpoint, rawQuery string) (Query, error) {
	allowed, ok := queryParams[endpoint]
	if !ok {
		return Query{}, fmt.Errorf("unknown endpoint %q", endpoint)
	}
	values, err := url.ParseQuery(rawQuery)
	if err != nil {
		return Query{}, fmt.Errorf("malformed query string: %v", err)
	}
	// Deterministic validation order whatever the map iteration does.
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	q := Query{Endpoint: endpoint, Format: "json"}
	for _, k := range keys {
		vs := values[k]
		if !allowed[k] {
			return Query{}, fmt.Errorf("unknown parameter %q for the %s endpoint", k, endpoint)
		}
		if len(vs) != 1 {
			return Query{}, fmt.Errorf("parameter %q given %d times, want once", k, len(vs))
		}
		v := vs[0]
		if v == "" {
			return Query{}, fmt.Errorf("parameter %q is empty", k)
		}
		if len(v) > maxParamLen {
			return Query{}, fmt.Errorf("parameter %q exceeds %d bytes", k, maxParamLen)
		}
		switch k {
		case "format":
			if v != "json" && v != "text" {
				return Query{}, fmt.Errorf("format %q: want json or text", v)
			}
			q.Format = v
		case "router":
			if strings.ContainsFunc(v, func(r rune) bool { return r < 0x20 || r == 0x7f }) {
				return Query{}, fmt.Errorf("router name contains control characters")
			}
			q.Router = v
		case "src", "dst":
			p, err := netaddr.ParsePrefix(v)
			if err != nil {
				return Query{}, fmt.Errorf("%s: %v", k, err)
			}
			if k == "src" {
				q.Src = p
			} else {
				q.Dst = p
			}
		}
	}
	if endpoint == "pathway" && q.Router == "" {
		return Query{}, fmt.Errorf("missing required parameter \"router\"")
	}
	_, hasSrc := values["src"]
	_, hasDst := values["dst"]
	if hasSrc != hasDst {
		return Query{}, fmt.Errorf("src and dst must be given together")
	}
	q.HasBlocks = hasSrc && hasDst
	return q, nil
}
