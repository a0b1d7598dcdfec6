package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"jetty/internal/metrics"
	"jetty/internal/sweep"
)

// Live observability: sampled experiments (SubmitRequest.Interval > 0)
// expose their timeline two ways — GET .../timeline serves the finished
// per-app timelines, and GET .../live streams windows as Server-Sent
// Events while the simulation runs. The stream source is a liveFeed fed
// by the sweep's per-cell window hook (sweep.Submission.OnWindow) on the
// engine worker, for every cell that executes for the experiment, in a
// unit of one or a fused one. A subscriber replays the buffered windows,
// then waits on the next publish, the sweep's Done or its own request,
// with no timer. On Done the feed is topped up from the retained
// timelines for cells no hook fired for (served from the result cache,
// coalesced onto an identical run such as an app listed twice, or run on
// cluster workers), so every subscriber sees the complete window
// sequence exactly once.

// liveFeed accumulates pre-encoded windows per job and wakes subscribers
// on every publish. The notify channel is replaced under the lock each
// time it is closed — the classic broadcast-by-closed-channel pattern —
// so any number of SSE handlers can wait without goroutine leaks.
type liveFeed struct {
	mu     sync.Mutex
	apps   []string
	wins   [][]json.RawMessage // per job, in emission order
	pubs   [][]time.Time       // publish instants, parallel to wins (fan-out lag)
	done   bool
	notify chan struct{}
}

func newLiveFeed(cells []sweep.Cell) *liveFeed {
	apps := make([]string, len(cells))
	for i, c := range cells {
		apps[i] = c.Label().Name
	}
	return &liveFeed{
		apps:   apps,
		wins:   make([][]json.RawMessage, len(apps)),
		pubs:   make([][]time.Time, len(apps)),
		notify: make(chan struct{}),
	}
}

// publish appends one window for cell idx. The window pointer is borrowed
// from the sampler (valid only during the callback), so it is encoded
// before the lock, never stored.
func (f *liveFeed) publish(idx int, w *metrics.Window) {
	raw, err := json.Marshal(w)
	if err != nil {
		return // windows are plain data; cannot happen
	}
	f.mu.Lock()
	if !f.done {
		f.wins[idx] = append(f.wins[idx], raw)
		f.pubs[idx] = append(f.pubs[idx], time.Now())
	}
	close(f.notify)
	f.notify = make(chan struct{})
	f.mu.Unlock()
}

// buffered counts the windows the feed retains, across all jobs — the
// jettyd_live_feed_windows_buffered gauge reads it per scrape.
func (f *liveFeed) buffered() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, w := range f.wins {
		n += len(w)
	}
	return n
}

// finish tops up windows no hook delivered (cache-hit cells ran before
// this experiment attached, or coalesced onto an identical run) from the
// cells' retained timelines, then marks the feed complete. Idempotent;
// every SSE handler calls it once the sweep's Done closes.
func (f *liveFeed) finish(timelines []*metrics.Timeline) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return
	}
	now := time.Now()
	for i, tl := range timelines {
		if tl == nil {
			continue
		}
		for wi := len(f.wins[i]); wi < len(tl.Windows); wi++ {
			raw, err := json.Marshal(&tl.Windows[wi])
			if err != nil {
				continue
			}
			f.wins[i] = append(f.wins[i], raw)
			f.pubs[i] = append(f.pubs[i], now)
		}
	}
	f.done = true
	close(f.notify)
	f.notify = make(chan struct{})
}

// liveEvent is one SSE "window" payload. published is internal — the
// fan-out lag histogram measures publish-to-write delay from it.
type liveEvent struct {
	App    string          `json:"app"`
	Index  int             `json:"index"` // window ordinal within the app
	Window json.RawMessage `json:"window"`

	published time.Time `json:"-"`
}

// next returns the events past the given per-job cursors (advancing
// them) and the channel to wait on for more.
func (f *liveFeed) next(cursors []int) (events []liveEvent, wait <-chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.wins {
		for ; cursors[i] < len(f.wins[i]); cursors[i]++ {
			events = append(events, liveEvent{
				App:       f.apps[i],
				Index:     cursors[i],
				Window:    f.wins[i][cursors[i]],
				published: f.pubs[i][cursors[i]],
			})
		}
	}
	return events, f.notify
}

// timelines returns a finished experiment's per-cell timelines, or nil
// unless it finished done. It waits under the background context, not
// the subscriber's: a detaching subscriber's canceled request must not
// race the finished channel into finishing the feed with nil timelines
// (which would permanently truncate every later subscriber's stream).
// Callers wait on the sweep's Done first, so Wait returns at once.
func (j *job) timelines() []*metrics.Timeline {
	res, err := j.sw.Wait(context.Background())
	if err != nil {
		return nil
	}
	out := make([]*metrics.Timeline, len(res.Cells))
	for _, tl := range res.Timelines {
		out[tl.Cell] = tl.Timeline
	}
	return out
}

// AppTimeline pairs one app run with its timeline.
type AppTimeline struct {
	App      string            `json:"app"`
	Timeline *metrics.Timeline `json:"timeline"`
}

// TimelineResponse is the GET /v1/experiments/{id}/timeline payload.
type TimelineResponse struct {
	ID       string        `json:"id"`
	Interval uint64        `json:"interval"`
	Apps     []AppTimeline `json:"apps"`
}

func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r, true)
	if j == nil {
		return
	}
	if j.req.Interval == 0 {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("experiment %s was not sampled; submit with \"interval\" to record a timeline", j.id))
		return
	}
	res := s.result(w, r, j)
	if res == nil {
		return
	}
	out := TimelineResponse{ID: j.id, Interval: j.req.Interval}
	for i, ar := range appResults(res) {
		out.Apps = append(out.Apps, AppTimeline{App: res.Cells[i].Cell.Label().Name, Timeline: ar.Timeline})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleLive streams an experiment's windows as SSE:
//
//	event: window    data: {"app":..., "index":..., "window":{...}}
//	event: done      data: {final ExperimentStatus}
//
// Works for unsampled experiments too (no window events, a final done),
// and for experiments canceled or evicted mid-stream (their cells reach
// a terminal state, closing the stream cleanly).
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r, true)
	if j == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	s.tel.liveSubscribers.Add(1)
	defer s.tel.liveSubscribers.Add(-1)

	// stream writes the windows past the cursors and returns the channel
	// that closes on the next publish (nil, never ready, when unsampled).
	cursors := make([]int, len(j.sw.Cells()))
	stream := func() <-chan struct{} {
		if j.feed == nil {
			return nil
		}
		events, wait := j.feed.next(cursors)
		for _, ev := range events {
			raw, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: window\ndata: %s\n\n", raw)
			s.tel.windowsStreamed.Add(1)
			s.tel.fanoutLag.Observe(time.Since(ev.published).Seconds())
		}
		if len(events) > 0 {
			flusher.Flush()
		}
		return wait
	}
	for {
		wait := stream()
		select {
		case <-r.Context().Done():
			return
		case <-wait:
		case <-j.sw.Done():
			if j.feed != nil {
				j.feed.finish(j.timelines())
				stream()
			}
			raw, _ := json.Marshal(j.experimentStatus())
			fmt.Fprintf(w, "event: done\ndata: %s\n\n", raw)
			flusher.Flush()
			return
		}
	}
}
