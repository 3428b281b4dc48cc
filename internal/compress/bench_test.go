package compress_test

import (
	"context"
	"testing"

	"routinglens/internal/compress"
	"routinglens/internal/core"
	"routinglens/internal/netaddr"
	"routinglens/internal/netgen"
	"routinglens/internal/simroute"
)

// BenchmarkQuotientBuild times Compute on a provider-tier network, the
// 10k-router fabric (perfbench's compress.build.s row times it on net5):
//
//	go test -run '^$' -bench QuotientBuild -benchtime 5x ./internal/compress
func BenchmarkQuotientBuild(b *testing.B) {
	g := netgen.GenerateProvider(2004, 10000)
	design, _, err := core.NewAnalyzer().AnalyzeConfigs(context.Background(), g.Name, g.Configs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := compress.Compute(design.Instances)
		if q.Identity {
			b.Fatal("provider quotient unexpectedly identity")
		}
	}
}

// BenchmarkQuotientReach times the cold reachability analysis on an
// already-built quotient: reduced-graph simulation plus the forced
// device-walk views. Its full-graph baseline is BenchmarkFullReach in
// the module root's bench_test.go; the ratio between the two is the
// quotient's cold-reach speedup, before the build's cost.
func BenchmarkQuotientReach(b *testing.B) {
	g := netgen.GenerateProvider(2004, 10000)
	design, _, err := core.NewAnalyzer().AnalyzeConfigs(context.Background(), g.Name, g.Configs)
	if err != nil {
		b.Fatal(err)
	}
	q := compress.Compute(design.Instances)
	if q.Identity {
		b.Fatal("provider quotient unexpectedly identity")
	}
	ext := []simroute.ExternalRoute{{Prefix: netaddr.PrefixFrom(0, 0)}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := q.Reach(design.AddressSpace, ext)
		a.HasDefaultRoute()
		a.AdmittedExternalRoutes()
	}
}
