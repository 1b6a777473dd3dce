package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// counters is one scrape of a server's /metrics: series (name plus labels,
// as exposed) to value.
type counters map[string]float64

// scrape reads GET /metrics, the Prometheus text exposition.
func (h *harness) scrape(url string) (counters, error) {
	r := h.do(-1, nil, "scrape", "GET", url, "/metrics", "", nil)
	if r.err != nil {
		return nil, r.err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", r.status)
	}
	out := counters{}
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		out[line[:cut]] += v
	}
	return out, sc.Err()
}

// sum adds up every series of the metric whose labels contain all of want
// (each a `key="value"` fragment).
func (c counters) sum(metric string, want ...string) float64 {
	total := 0.0
series:
	for series, v := range c {
		name, labels, _ := strings.Cut(series, "{")
		if name != metric {
			continue
		}
		for _, w := range want {
			if !strings.Contains(labels, w) {
				continue series
			}
		}
		total += v
	}
	return total
}

// minus is the change from before to c.
func (c counters) minus(before counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

// plus adds another server's counters (the two shard workers report as one).
func (c counters) plus(o counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v
	}
	for k, v := range o {
		out[k] += v
	}
	return out
}

// histMeanMS is the mean of a seconds histogram over the scrape, in ms.
func (c counters) histMeanMS(metric string) float64 {
	return ratio(c.sum(metric+"_sum"), c.sum(metric+"_count")) * 1e3
}
