package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// result is the final JSON line of one run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runChild runs one workload in a fresh process, so no workload's garbage
// or caches tax the next, copying its output to w. It returns the parsed
// result line and any failure, including a wrong answer.
func runChild(w io.Writer, workload string, seed int64, seconds float64, trace int, spans string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--spans", spans)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(w, &out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
		}
		return nil, fmt.Errorf("%s seed %d: no result line: %w", workload, seed, err)
	}
	if runErr != nil {
		return &res, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
	}
	return &res, nil
}

// runAll runs every workload, each in its own process, and exits non-zero
// if any of them answered wrong or failed.
func runAll(seed int64, seconds float64, trace int, spans string) error {
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	var firstErr error
	for _, wl := range workloads {
		fmt.Printf("## %s\n", wl)
		res, err := runChild(os.Stdout, wl, seed, seconds, trace, spans)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if res == nil {
			total.Correct = false
			continue
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for name, v := range res.Metrics {
			total.Metrics[wl+"."+name] = v
		}
	}
	b, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return firstErr
}

// runSteady runs each workload n times with seeds seed, seed+1, ... and
// prints, per metric, the median, the quartiles as Python's
// statistics.quantiles(values, n=4) gives them, and the spread (quartile
// distance over median) against a third of the metric's bound.
func runSteady(workload string, seed int64, seconds float64, trace, n int, spans string) error {
	wls := workloads
	if workload != "" && workload != "all" {
		if !validWorkload(workload) {
			return fmt.Errorf("unknown workload %q", workload)
		}
		wls = []string{workload}
	}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	var firstErr error
	for _, wl := range wls {
		values := map[string][]float64{}
		for r := 0; r < n; r++ {
			res, err := runChild(io.Discard, wl, seed+int64(r), seconds, trace, spans)
			if err != nil {
				fmt.Printf("%s run %d: %v\n", wl, r, err)
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			line := fmt.Sprintf("%s seed %d:", wl, seed+int64(r))
			for _, d := range defs {
				if v, ok := res.Metrics[d.Name]; ok {
					values[d.Name] = append(values[d.Name], v.Value)
					line += fmt.Sprintf(" %s=%.4g", d.Name, v.Value)
				}
			}
			fmt.Println(line)
		}
		fmt.Printf("## %s: %d runs, seeds %d..%d, %gs each\n", wl, n, seed, seed+int64(n)-1, seconds)
		fmt.Printf("%-34s %14s %14s %14s %8s %8s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, d := range defs {
			xs := values[d.Name]
			if len(xs) < 2 {
				continue
			}
			med := median(xs)
			q1, q3 := quartiles(xs)
			spread := ratio(q3-q1, med)
			flag := ""
			if d.Bound > 0 && d.Name != "setup_s" && spread >= d.Bound/3 {
				flag = "  WIDE"
			}
			fmt.Printf("%-34s %14.6g %14.6g %14.6g %8.4f %8.3g%s\n", d.Name, med, q1, q3, spread, d.Bound, flag)
		}
	}
	return firstErr
}

// quartiles matches Python's statistics.quantiles(data, n=4) with its
// default exclusive method.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
