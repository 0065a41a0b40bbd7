package bfs

import (
	"testing"

	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
)

// BenchmarkMetricsOverheadBFS measures the metrics layer's cost on a real
// kernel: a full CAS-LT BFS, metrics off vs on. The "off" sub-benchmark is
// the committed overhead witness against the pre-metrics tree (the same
// benchmark body runs there without the layer; BENCH_metrics_overhead.json
// holds the committed comparison): per-claim the off path costs one inlined nil
// branch plus materializing the claim outcome — about a nanosecond — and a
// traversal kernel buries that in memory traffic. "on" additionally pays
// the shard increments and the per-worker timestamping (no probe here;
// EnableProbe adds a CAS per executed attempt on top).
func BenchmarkMetricsOverheadBFS(b *testing.B) {
	g := graph.ConnectedRandom(20000, 120000, 1)
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			var opts []machine.Option
			if mode == "on" {
				opts = append(opts, machine.WithMetrics())
			}
			m := machine.New(4, opts...)
			defer m.Close()
			k := NewKernel(m, g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Prepare(0)
				k.RunCASLTExec(machine.ExecTeam)
			}
		})
	}
}
