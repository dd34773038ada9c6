package flux

import "testing"

// Allocation-path performance of the graph matcher, at MiniCluster
// shapes of the study's scales.

func BenchmarkSubmitRelease32Nodes(b *testing.B) {
	in := NewInstance("bench", NewCluster("nd40", 32, 2, 24, 4))
	spec := Jobspec{Name: "mc", NumSlots: 32, CoresPerSlot: 24, GPUsPerSlot: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, _, err := in.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := in.Release(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubmitRelease256Nodes(b *testing.B) {
	in := NewInstance("bench", NewCluster("hpc6a", 256, 2, 48, 0))
	spec := Jobspec{Name: "job", NumSlots: 256, CoresPerSlot: 96, NodeExclusive: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, _, err := in.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := in.Release(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCountFree(b *testing.B) {
	g := NewCluster("hpc6a", 256, 2, 48, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CountFree(CoreRes)
	}
}

func BenchmarkSpawnNested(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in := NewInstance("bench", NewCluster("nd40", 8, 2, 24, 4))
		_, alloc, err := in.Submit(Jobspec{Name: "mc", NumSlots: 4, CoresPerSlot: 48, GPUsPerSlot: 8, NodeExclusive: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := in.Spawn("child", alloc); err != nil {
			b.Fatal(err)
		}
	}
}
