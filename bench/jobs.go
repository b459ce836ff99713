package main

import (
	"context"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"chameleon"
	"chameleon/internal/jobs"
	"chameleon/internal/uncertain"
)

func (p params) spec() jobs.Spec {
	return jobs.Spec{K: p.K, Epsilon: p.Eps, Method: p.Method, Samples: p.Samples, Seed: p.Seed}
}

// runJobs runs one round of jobs-burst: start a jobs.Manager on a fresh
// spool, then submit every job at once and wait for all of them, burst
// after burst. A traced round then runs each job again outside the
// manager, untraced and traced, to split the manager's overhead from the
// anonymization itself.
func runJobs(e *childEnv) (*roundResult, error) {
	p := e.man.Params
	rr := &roundResult{}
	start := time.Now()
	graphs := make([]*uncertain.Graph, len(e.man.Inputs))
	for i, in := range e.man.Inputs {
		g, err := loadGraph(in.Path)
		if err != nil {
			return nil, err
		}
		graphs[i] = g
	}
	decode := time.Since(start)
	store, err := jobs.NewStore(filepath.Join(e.dir, fmt.Sprintf("spool-r%d", e.round)))
	if err != nil {
		return nil, err
	}
	defer store.Close()
	m := jobs.NewManager(jobs.Config{Store: store, MaxConcurrent: workers, WorkersPerJob: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer m.Wait()
	defer cancel()
	if _, err := m.Start(ctx); err != nil {
		return nil, err
	}
	rr.SetupS = time.Since(start).Seconds() * e.clock.setupLap()

	var submitMS, waitS, runS []float64
	// Each job's run time in the manager and result digest, from the last
	// burst it completed in.
	lastRun := make([]time.Duration, len(graphs))
	lastDigest := make([]string, len(graphs))
	gc := readGC()
	begin := time.Now()
	for b := 0; ; b++ {
		burst := time.Now()
		ids := make([]string, len(graphs))
		for i, g := range graphs {
			t := time.Now()
			job, err := m.Submit(p.spec(), g)
			submitMS = append(submitMS, millis(time.Since(t)))
			rr.Attempted++
			if err != nil {
				rr.fail("burst %d job %d: submit: %v", b, i, err)
				continue
			}
			ids[i] = job.ID
		}
		for _, id := range ids {
			if id == "" {
				continue
			}
			done, err := m.Done(id)
			if err != nil {
				return nil, err
			}
			<-done
		}
		makespan := time.Since(burst)
		f := e.clock.lap()
		completed := 0
		for i, id := range ids {
			if id == "" {
				continue
			}
			st, err := m.Get(id)
			if err != nil {
				return nil, err
			}
			if st.State != jobs.StateDone {
				rr.fail("burst %d job %d: ended %s: %s", b, i, st.State, st.Error)
				continue
			}
			path := store.ResultPath(id)
			sum, err := fileSHA256(path)
			if err != nil {
				rr.fail("burst %d job %d: %v", b, i, err)
				continue
			}
			completed++
			rr.LatencyMS = append(rr.LatencyMS, millis(st.FinishedAt.Sub(st.SubmittedAt))*f)
			rr.Outputs = append(rr.Outputs, output{Input: e.man.Inputs[i].Name, Path: path, Digest: sum})
			waitS = append(waitS, st.StartedAt.Sub(st.SubmittedAt).Seconds())
			lastRun[i] = st.FinishedAt.Sub(st.StartedAt)
			lastDigest[i] = sum
			runS = append(runS, lastRun[i].Seconds())
		}
		rr.RatePerS = append(rr.RatePerS, float64(completed)/(makespan.Seconds()*f))
		if !e.more(begin, makespan, b+1, 1) {
			break
		}
	}
	rr.PeakRSSMB = peakRSSMB()
	if !e.trace || len(runS) == 0 {
		return rr, nil
	}

	rr.Layers = map[string]float64{
		"uncertain.decode_ms": millis(decode),
		"jobs.submit_ms":      median(submitMS),
		"jobs.queue_wait_s":   median(waitS),
		"jobs.run_s":          median(runS),
	}
	recordGC(rr.Layers, gc)
	spool, err := dirBytes(store.Dir())
	if err != nil {
		return nil, err
	}
	rr.Layers["jobs.spool_bytes"] = float64(spool) / float64(len(runS))

	var overhead, traceOverhead []float64
	var first anonRun
	var firstGraph *uncertain.Graph
	path := filepath.Join(e.dir, "standalone.ug2")
	for i, g := range graphs {
		if lastDigest[i] == "" {
			continue
		}
		plain, err := anonymize(g, p, nil, path, 1)
		if err != nil {
			return nil, err
		}
		traced, err := anonymize(g, p, chameleon.NewObserver(), path, 1)
		if err != nil {
			return nil, err
		}
		// The daemon-vs-library determinism contract.
		if plain.digest != lastDigest[i] {
			rr.fail("%s: the job's result differs from a standalone anonymization", e.man.Inputs[i].Name)
		}
		overhead = append(overhead, lastRun[i].Seconds()/plain.total.Seconds())
		traceOverhead = append(traceOverhead, traced.total.Seconds()/plain.total.Seconds())
		if first.res == nil {
			first = traced
			firstGraph = g
		}
	}
	rr.Layers["jobs.overhead_ratio"] = median(overhead)
	rr.Layers["harness.trace_overhead"] = median(traceOverhead)
	if err := anonLayers(rr.Layers, firstGraph, p, []anonRun{first}, 1); err != nil {
		return nil, err
	}
	return rr, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
