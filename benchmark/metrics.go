package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one reading of GET /metrics: series (name plus label set,
// as printed) → value.
type scrape map[string]float64

// parseMetrics reads the Prometheus text format: comment lines are
// skipped, every other line is "series value".
func parseMetrics(r io.Reader) (scrape, error) {
	out := make(scrape)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// Label values may hold spaces; the value never does.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out, sc.Err()
}

func scrapeMetrics(base string) (scrape, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// delta returns after-before per series; a series absent before counts
// from zero (func-backed counters appear on first use).
func (before scrape) delta(after scrape) scrape {
	out := make(scrape, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sum adds every series of the metric name whose label set contains all
// of labels (each written as it is printed: `phase="explore"`).
func (s scrape) sum(name string, labels ...string) float64 {
	var total float64
series:
	for k, v := range s {
		if k != name && !strings.HasPrefix(k, name+"{") {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(k, l) {
				continue series
			}
		}
		total += v
	}
	return total
}

// ratio is a/(a+b), and 0 when nothing was counted: on a workload that
// bypasses a cache, its hit ratio is 0 by construction.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}
