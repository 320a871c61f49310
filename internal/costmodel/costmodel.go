// Package costmodel implements the paper's back-of-the-envelope storage
// provisioning analysis (§4.5, §4.6): given the measured per-drive
// throughput and capacity of each configuration, compute how many drives
// a deployment needs for a target dataset size and aggregate throughput,
// and map out which configuration is cheaper across a grid — the paper's
// Fig 6c and Fig 8 heatmaps.
package costmodel

import (
	"fmt"
	"math"
	"strings"
)

// Option is one deployable configuration (a PTS on a drive model, with
// its measured steady-state characteristics).
type Option struct {
	Name string
	// ThroughputKOps is the measured per-instance steady throughput.
	ThroughputKOps float64
	// MaxDatasetBytes is the largest dataset one drive can host: drive
	// capacity divided by the configuration's space amplification (and
	// reduced by any capacity given up to software over-provisioning).
	MaxDatasetBytes float64
}

// DrivesNeeded returns the number of drives option o needs to host
// datasetBytes at targetKOps, following the paper's assumptions: one PTS
// instance per drive, aggregate throughput additive.
func (o Option) DrivesNeeded(datasetBytes, targetKOps float64) int {
	if o.MaxDatasetBytes <= 0 || o.ThroughputKOps <= 0 {
		return math.MaxInt32
	}
	forCapacity := math.Ceil(datasetBytes / o.MaxDatasetBytes)
	forThroughput := math.Ceil(targetKOps / o.ThroughputKOps)
	n := forCapacity
	if forThroughput > n {
		n = forThroughput
	}
	if n < 1 {
		n = 1
	}
	return int(n)
}

// Cell is one heatmap entry.
type Cell struct {
	DatasetBytes float64
	TargetKOps   float64
	Winner       string // option name, or "tie"
	Drives       []int  // per option, same order as the Options slice
}

// Heatmap compares options over a grid.
type Heatmap struct {
	Options  []Option
	Datasets []float64 // bytes
	Targets  []float64 // KOps
	Cells    [][]Cell  // [target][dataset]
}

// Compute builds the heatmap.
func Compute(options []Option, datasets []float64, targets []float64) (*Heatmap, error) {
	if len(options) < 2 {
		return nil, fmt.Errorf("costmodel: need at least two options, got %d", len(options))
	}
	h := &Heatmap{Options: options, Datasets: datasets, Targets: targets}
	for _, t := range targets {
		row := make([]Cell, 0, len(datasets))
		for _, d := range datasets {
			cell := Cell{DatasetBytes: d, TargetKOps: t}
			best, bestIdx, tie := math.MaxInt32, -1, false
			for i, o := range options {
				n := o.DrivesNeeded(d, t)
				cell.Drives = append(cell.Drives, n)
				switch {
				case n < best:
					best, bestIdx, tie = n, i, false
				case n == best:
					tie = true
				}
			}
			if tie {
				cell.Winner = "tie"
			} else {
				cell.Winner = options[bestIdx].Name
			}
			row = append(row, cell)
		}
		h.Cells = append(h.Cells, row)
	}
	return h, nil
}

// Render draws the heatmap as aligned text, targets down, datasets
// across, matching the orientation of the paper's figures (y axis:
// target throughput, x axis: dataset size).
func (h *Heatmap) Render() string {
	var b strings.Builder
	short := map[string]string{"tie": "="}
	for i, o := range h.Options {
		short[o.Name] = fmt.Sprintf("%c", 'A'+i)
		fmt.Fprintf(&b, "  %c = %s (%.2f KOps/drive, %.0f GB/drive)\n",
			'A'+i, o.Name, o.ThroughputKOps, o.MaxDatasetBytes/(1<<30))
	}
	fmt.Fprintf(&b, "  %-12s", "tgt \\ data")
	for _, d := range h.Datasets {
		fmt.Fprintf(&b, "%8.1fTB", d/(1<<40))
	}
	b.WriteByte('\n')
	for ti := len(h.Targets) - 1; ti >= 0; ti-- { // high targets on top
		fmt.Fprintf(&b, "  %-9.0fKOps", h.Targets[ti])
		for di := range h.Datasets {
			fmt.Fprintf(&b, "%10s", short[h.Cells[ti][di].Winner])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
