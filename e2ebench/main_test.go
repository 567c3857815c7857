package main

import (
	"strings"
	"testing"
)

// TestIdleLayersNameMetrics checks that every workload lists its idle
// layers and that each entry names at least one per-layer metric, so a
// renamed metric cannot silently stop being reported as idle.
func TestIdleLayersNameMetrics(t *testing.T) {
	for w := range workloads {
		entries, ok := idleLayers[w]
		if !ok {
			t.Errorf("%s: no idle-layer list", w)
		}
		for _, e := range entries {
			found := false
			for _, d := range perLayer {
				found = found || d.name == e || strings.HasSuffix(e, ".") && strings.HasPrefix(d.name, e)
			}
			if !found {
				t.Errorf("%s: idle entry %q matches no per-layer metric", w, e)
			}
		}
	}
}
