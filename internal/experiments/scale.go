package experiments

import (
	"context"
	"time"

	"repro/internal/core"
)

// pipelineThroughput measures points/second of online selection across a
// worker pool on pre-generated CBF segments.
func pipelineThroughput(workers, segments int) float64 {
	p, err := core.NewPipeline(core.Config{
		TargetRatioOverride: 0.5,
		Objective:           core.SingleTarget(core.TargetRatio),
		Seed:                21,
	}, workers)
	if err != nil {
		panic(err)
	}
	stream := cbfStreamSegments(segments, 22)
	var points int
	p.Start(context.Background())
	start := time.Now()
	for _, seg := range stream {
		p.Submit(core.LabeledSegment{Values: seg.values, Label: seg.label})
		points += len(seg.values)
	}
	p.Close()
	dur := time.Since(start).Seconds()
	if dur <= 0 {
		dur = 1e-9
	}
	return float64(points) / dur
}
