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
