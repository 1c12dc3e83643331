package core

import (
	"repro/internal/sim"
	"repro/internal/transport"
)

// FrameSender consumes transmitted segment frames;
// *transport.ResilientUplink implements it (Send spools the frame for
// acknowledged delivery). Abstracted so tests can capture frames without
// sockets.
type FrameSender interface {
	Send(transport.Frame) error
}

// DrainTo offloads the backlog through a framed sender — Drain plus the
// actual network protocol of §IV-B1. Segments the sender rejects stay
// stored (and re-enter the pool untouched); the returned report covers
// only what was actually shipped.
func (e *OfflineEngine) DrainTo(sender FrameSender, bw sim.Bandwidth, seconds float64) (DrainReport, error) {
	report := e.Drain(bw, seconds)
	for i, entry := range report.Sent {
		frame := transport.Frame{ID: entry.ID, Label: entry.Label, Enc: entry.Enc}
		if err := sender.Send(frame); err != nil {
			// Re-store everything not yet shipped so no data is lost.
			for j := i; j < len(report.Sent); j++ {
				failed := report.Sent[j]
				restored := failed // copy
				if allocErr := e.storage.Alloc(int64(failed.Enc.Size())); allocErr != nil {
					// The space was freed by Drain moments ago; a failure
					// here means concurrent ingestion raced the drain.
					// Surface the original send error either way.
					break
				}
				e.pool.Put(&restored)
			}
			report.Sent = report.Sent[:i]
			report.SegmentsSent = i
			report.BytesSent = 0
			for _, en := range report.Sent {
				report.BytesSent += int64(en.Enc.Size())
			}
			report.SegmentsLeft = e.pool.Len()
			report.BytesLeft = e.pool.TotalBytes()
			return report, err
		}
	}
	return report, nil
}
