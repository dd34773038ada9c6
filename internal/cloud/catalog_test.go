package cloud

import "testing"

func TestCatalogHasAllTable2Rows(t *testing.T) {
	t.Parallel()
	c := NewCatalog()
	if got := len(c.All()); got != 8 {
		t.Fatalf("catalog has %d entries, want 8 (Table 2 distinct SKUs)", got)
	}
	cases := []struct {
		prov  Provider
		name  string
		cores int
		gpus  int
		cost  float64
	}{
		{OnPrem, "dell-xeon-8480", 112, 0, 0},
		{AWS, "Hpc6a", 96, 0, 2.88},
		{Google, "c2d-standard-112", 56, 0, 5.06},
		{Azure, "HB96rs v3", 96, 0, 3.60},
		{OnPrem, "ibm-power9-v100", 44, 4, 0},
		{AWS, "p3dn.24xlarge", 48, 8, 34.33},
		{Google, "n1-standard-32", 16, 8, 23.36},
		{Azure, "ND40rs v2", 48, 8, 22.03},
	}
	for _, tc := range cases {
		it, err := c.Lookup(tc.prov, tc.name)
		if err != nil {
			t.Fatalf("Lookup(%s/%s): %v", tc.prov, tc.name, err)
		}
		if it.Cores != tc.cores {
			t.Errorf("%s cores = %d, want %d", it, it.Cores, tc.cores)
		}
		if it.GPUs != tc.gpus {
			t.Errorf("%s GPUs = %d, want %d", it, it.GPUs, tc.gpus)
		}
		if it.HourlyUSD != tc.cost {
			t.Errorf("%s cost = %v, want %v", it, it.HourlyUSD, tc.cost)
		}
	}
}

func TestCatalogLookupUnknown(t *testing.T) {
	t.Parallel()
	c := NewCatalog()
	if _, err := c.Lookup(AWS, "nope"); err == nil {
		t.Fatalf("expected error for unknown type")
	}
}

func TestGoogleCPUCoreDisadvantage(t *testing.T) {
	t.Parallel()
	// The paper repeatedly flags that Google CPU instances had 56 cores vs
	// 96 on AWS/Azure; the catalog must preserve that.
	c := NewCatalog()
	g, _ := c.Lookup(Google, "c2d-standard-112")
	a, _ := c.Lookup(AWS, "Hpc6a")
	z, _ := c.Lookup(Azure, "HB96rs v3")
	if g.Cores >= a.Cores || g.Cores >= z.Cores {
		t.Fatalf("Google cores (%d) should be fewer than AWS (%d) and Azure (%d)", g.Cores, a.Cores, z.Cores)
	}
}

func TestOnPremGPUNodeHas4GPUs(t *testing.T) {
	t.Parallel()
	// Cluster B has 4 GPUs/node vs 8 on cloud — the study compares sizes
	// 8/16/32/64 on B to 4/8/16/32 on cloud because of this.
	c := NewCatalog()
	b, _ := c.Lookup(OnPrem, "ibm-power9-v100")
	if b.GPUs != 4 {
		t.Fatalf("cluster B GPUs/node = %d, want 4", b.GPUs)
	}
	for _, cloudName := range []struct {
		p Provider
		n string
	}{{AWS, "p3dn.24xlarge"}, {Google, "n1-standard-32"}, {Azure, "ND40rs v2"}} {
		it, _ := c.Lookup(cloudName.p, cloudName.n)
		if it.GPUs != 8 {
			t.Fatalf("%s GPUs/node = %d, want 8", it, it.GPUs)
		}
	}
}

func TestV100MemoryVariants(t *testing.T) {
	t.Parallel()
	// Google Cloud and cluster B have 16GB V100s; AWS and Azure have 32GB.
	// The study sized problems for the 16GB variant.
	c := NewCatalog()
	g, _ := c.Lookup(Google, "n1-standard-32")
	b, _ := c.Lookup(OnPrem, "ibm-power9-v100")
	if g.GPUMemGB != 16 || b.GPUMemGB != 16 {
		t.Fatalf("GCP/B V100 memory = %d/%d, want 16/16", g.GPUMemGB, b.GPUMemGB)
	}
	a, _ := c.Lookup(AWS, "p3dn.24xlarge")
	z, _ := c.Lookup(Azure, "ND40rs v2")
	if a.GPUMemGB != 32 || z.GPUMemGB != 32 {
		t.Fatalf("AWS/Azure V100 memory = %d/%d, want 32/32", a.GPUMemGB, z.GPUMemGB)
	}
}

func TestNodeDefectPredicates(t *testing.T) {
	t.Parallel()
	it := InstanceType{GPUs: 8, Cores: 48}
	n := Node{Type: &it, VisibleGPUs: 7, VisibleCores: 48}
	if !n.DefectiveGPU() {
		t.Fatalf("7/8 GPUs should be defective")
	}
	if n.DefectiveCPU() {
		t.Fatalf("full cores should not be defective")
	}
	fish := Node{Type: &it, VisibleGPUs: 8, VisibleCores: 2}
	if !fish.DefectiveCPU() {
		t.Fatalf("2/48 cores should be defective")
	}
}

func TestClusterAggregates(t *testing.T) {
	t.Parallel()
	it := InstanceType{GPUs: 8, Cores: 48}
	c := Cluster{Type: it}
	for i := 0; i < 4; i++ {
		c.Nodes = append(c.Nodes, &Node{Type: &c.Type, VisibleGPUs: 8, VisibleCores: 48, Healthy: true})
	}
	c.Nodes[2].VisibleGPUs = 7
	if c.TotalGPUs() != 31 {
		t.Fatalf("TotalGPUs = %d, want 31", c.TotalGPUs())
	}
	if c.TotalCores() != 192 {
		t.Fatalf("TotalCores = %d, want 192", c.TotalCores())
	}
	if len(c.HealthyNodes()) != 3 {
		t.Fatalf("HealthyNodes = %d, want 3", len(c.HealthyNodes()))
	}
}
