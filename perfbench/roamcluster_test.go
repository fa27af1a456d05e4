package main

import (
	"testing"

	"repro/internal/edgecluster"
	"repro/internal/geo"
)

// Ads are sent to the edge the cluster's own routing picks (the
// nearest covering disk), and a position no disk covers is counted.
func TestRouteAdsAsksTheCluster(t *testing.T) {
	base, _, _, err := defense(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := edgecluster.Config{
		Engine: base,
		Coverage: []geo.Circle{
			{Center: geo.Point{X: 0, Y: 0}, Radius: 10_000},
			{Center: geo.Point{X: 15_000, Y: 0}, Radius: 10_000},
		},
		MergeRegion: geo.BBox{MinX: -10_000, MinY: -10_000, MaxX: 25_000, MaxY: 10_000},
		Seed:        1,
	}
	cluster, err := edgecluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := &roamDeploy{cfg: cfg, cluster: cluster, ads: []adOp{
		{pos: geo.Point{X: 1_000}},  // only edge 0
		{pos: geo.Point{X: 9_000}},  // both, nearer edge 1
		{pos: geo.Point{X: 14_000}}, // only edge 1
		{pos: geo.Point{X: 40_000}}, // none
	}}
	uncovered, err := routeAds(d)
	if err != nil {
		t.Fatal(err)
	}
	if uncovered != 1 {
		t.Errorf("uncovered = %d, want 1", uncovered)
	}
	for i, want := range []int{0, 1, 1, 0} {
		if d.ads[i].node != want {
			t.Errorf("ad %d routed to edge %d, want %d", i, d.ads[i].node, want)
		}
	}
}
