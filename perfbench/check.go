package main

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpiio"
)

// pattern is the byte the benchmark writes at a rank-local offset. It is the
// benchmark's own function of (seed, rank, offset), so every content check
// compares the program's output with a value computed apart from it.
func pattern(seed int64, rank int, off int64) byte {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(rank)<<40 ^ uint64(off>>3)
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return byte(x >> (8 * uint(off&7)))
}

// fill returns a rank's n bytes of input starting at rank-local offset 0.
func fill(seed int64, rank int, n int64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = pattern(seed, rank, int64(i))
	}
	return b
}

// grid factors procs into the tile grid the MPI-Tile-IO benchmark uses: ny
// the largest divisor not above the square root, nx = procs/ny.
func grid(procs int) (nx, ny int) {
	ny = 1
	for d := 1; d*d <= procs; d++ {
		if procs%d == 0 {
			ny = d
		}
	}
	return procs / ny, ny
}

// tileImage derives the whole file the tile array must produce: rank
// (row, col) of the nx-wide grid owns a tileY x tileX block of elem-byte
// elements, laid out row-major in the global array, and its rank-local byte
// i sits at row i/(tileX*elem) of its block.
func tileImage(seed int64, procs int, tileX, tileY, elem int64) []byte {
	nx, ny := grid(procs)
	rowBytes := int64(nx) * tileX * elem
	img := make([]byte, rowBytes*int64(ny)*tileY)
	tileRow := tileX * elem
	for rank := 0; rank < procs; rank++ {
		row, col := int64(rank/nx), int64(rank%nx)
		for y := int64(0); y < tileY; y++ {
			dst := (row*tileY+y)*rowBytes + col*tileRow
			for x := int64(0); x < tileRow; x++ {
				img[dst+x] = pattern(seed, rank, y*tileRow+x)
			}
		}
	}
	return img
}

// firstDiff returns the first index where got and want differ, or -1.
func firstDiff(got, want []byte) int {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return i
		}
	}
	if len(got) != len(want) {
		return n
	}
	return -1
}

// checkPlan checks the partition properties ParColl must have: the groups
// are disjoint and cover every rank, each has an aggregator from among its
// members, and aggregators of different groups never share a node (the
// paper's constraint (b)).
func checkPlan(p core.Plan, procs int, ccfg cluster.Config, wantGroups int) error {
	if len(p.Groups) != wantGroups {
		return fmt.Errorf("plan has %d groups, want %d", len(p.Groups), wantGroups)
	}
	if len(p.Aggregators) != len(p.Groups) {
		return fmt.Errorf("plan has %d aggregator lists for %d groups", len(p.Aggregators), len(p.Groups))
	}
	groupOf := make([]int, procs)
	for i := range groupOf {
		groupOf[i] = -1
	}
	for g, members := range p.Groups {
		for _, r := range members {
			if r < 0 || r >= procs {
				return fmt.Errorf("group %d holds rank %d outside [0,%d)", g, r, procs)
			}
			if groupOf[r] >= 0 {
				return fmt.Errorf("rank %d is in groups %d and %d", r, groupOf[r], g)
			}
			groupOf[r] = g
		}
	}
	for r, g := range groupOf {
		if g < 0 {
			return fmt.Errorf("rank %d is in no group", r)
		}
	}
	c := cluster.New(procs, ccfg)
	nodeGroup := map[int]int{}
	for g, aggs := range p.Aggregators {
		if len(aggs) == 0 {
			return fmt.Errorf("group %d has no aggregator", g)
		}
		for _, a := range aggs {
			if a < 0 || a >= procs || groupOf[a] != g {
				return fmt.Errorf("aggregator %d of group %d is not a member", a, g)
			}
			node := c.NodeOf(a)
			if h, ok := nodeGroup[node]; ok && h != g {
				return fmt.Errorf("node %d hosts aggregators of groups %d and %d", node, h, g)
			}
			nodeGroup[node] = g
		}
	}
	return nil
}

// checkBreakdown checks one rank's time split: no part is negative and the
// parts add up to no more than the virtual time the rank spent in the
// measured collective calls.
func checkBreakdown(rank int, bd mpiio.Breakdown, elapsed float64) error {
	for _, v := range []float64{bd.Sync, bd.Exchange, bd.IO, bd.Other} {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("rank %d: breakdown %+v has a negative part", rank, bd)
		}
	}
	if t := bd.Total(); t > elapsed*(1+1e-9) {
		return fmt.Errorf("rank %d: breakdown total %g exceeds elapsed %g", rank, t, elapsed)
	}
	return nil
}

// checkQuantiles checks p50 <= p99 <= makespan over a run's collective calls.
func checkQuantiles(p50, p99, makespan float64) error {
	if !(p50 > 0 && p50 <= p99 && p99 <= makespan) {
		return fmt.Errorf("latency quantiles out of order: p50 %g, p99 %g, makespan %g", p50, p99, makespan)
	}
	return nil
}
