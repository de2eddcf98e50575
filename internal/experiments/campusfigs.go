package experiments

import (
	"fmt"
	"sort"

	"videoplat/internal/campus"
	"videoplat/internal/fingerprint"
)

type campusCache struct {
	res *campus.Result
}

// campusResult runs (once) the §5 campus simulation against a bank trained
// on the lab dataset.
func (c *Context) campusResult() (*campus.Result, error) {
	c.mu.Lock()
	if c.campusRes != nil {
		res := c.campusRes.res
		c.mu.Unlock()
		return res, nil
	}
	c.mu.Unlock()

	bank, err := c.bank()
	if err != nil {
		return nil, err
	}
	res, err := campus.Simulate(campus.Config{
		Seed: c.Seed + 0xca, Days: c.CampusDays, SessionsPerDay: c.CampusSessionsPerDay}, bank)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.campusRes = &campusCache{res: res}
	c.mu.Unlock()
	return res, nil
}

var deviceOrder = []string{"windows", "macOS", "android", "iOS", "TV"}

// Fig7 regenerates daily watch time per device type and provider.
func Fig7(c *Context) (*Report, error) {
	res, err := c.campusResult()
	if err != nil {
		return nil, err
	}
	wt := res.WatchTimeByDevice()
	r := &Report{ID: "Fig 7", Title: "Watch time (hours/day) per device type and provider"}
	r.Printf("%-10s %9s %9s %9s %9s %9s %9s", "provider", "windows", "macOS", "android", "iOS", "TV", "total")
	for _, prov := range fingerprint.AllProviders() {
		row := fmt.Sprintf("%-10s", prov)
		var total float64
		for _, dev := range deviceOrder {
			h := wt[prov][dev]
			total += h
			row += fmt.Sprintf(" %9.1f", h)
		}
		row += fmt.Sprintf(" %9.1f", total)
		r.Lines = append(r.Lines, row)
		r.Metric(prov.String()+"/total_hours_per_day", total)
		for _, dev := range deviceOrder {
			r.Metric(prov.String()+"/"+dev, wt[prov][dev])
		}
	}
	r.Printf("paper shape: YouTube dominates (~2000 h/day); subscriptions PC-heavy; YT up to 40%% mobile")
	return r, nil
}

// Fig8 regenerates watch time per software agent on each device type, one
// block per provider.
func Fig8(c *Context) (*Report, error) {
	res, err := c.campusResult()
	if err != nil {
		return nil, err
	}
	byAgent := res.WatchTimeByAgent()
	r := &Report{ID: "Fig 8", Title: "Watch time (hours/day) per software agent on each device type"}
	for _, prov := range fingerprint.AllProviders() {
		r.Printf("-- %s --", prov)
		for _, dev := range deviceOrder {
			agents := byAgent[prov][dev]
			if len(agents) == 0 {
				continue
			}
			names := make([]string, 0, len(agents))
			for a := range agents {
				names = append(names, a)
			}
			sort.Strings(names)
			row := fmt.Sprintf("  %-8s", dev)
			for _, a := range names {
				row += fmt.Sprintf("  %s=%.1f", a, agents[a])
				r.Metric(fmt.Sprintf("%s/%s/%s", prov, dev, a), agents[a])
			}
			r.Lines = append(r.Lines, row)
		}
	}
	r.Printf("paper shape: Chrome-on-Windows tops YouTube; iOS native apps >90%% of mobile watch time")
	return r, nil
}

// Fig9 regenerates the bandwidth box plots per device type and provider.
func Fig9(c *Context) (*Report, error) {
	res, err := c.campusResult()
	if err != nil {
		return nil, err
	}
	bw := res.BandwidthByDevice()
	r := &Report{ID: "Fig 9", Title: "Downstream bandwidth (Mbps) per device type and provider"}
	r.Printf("%-10s %-8s %7s %7s %7s %7s", "provider", "device", "q1", "median", "q3", "n")
	for _, prov := range fingerprint.AllProviders() {
		for _, dev := range deviceOrder {
			box, ok := bw[prov][dev]
			if !ok || box.N == 0 {
				continue
			}
			r.Printf("%-10s %-8s %7.2f %7.2f %7.2f %7d", prov, dev, box.Q1, box.Median, box.Q3, box.N)
			r.Metric(fmt.Sprintf("%s/%s/median", prov, dev), box.Median)
		}
	}
	r.Printf("paper shape: Amazon-on-Mac highest median (5.7 Mbps), ~50%% above smart TVs;")
	r.Printf("subscription IQRs sit 3–9 Mbps above YouTube's")
	return r, nil
}

// Fig10 regenerates the bandwidth box plots per software agent.
func Fig10(c *Context) (*Report, error) {
	res, err := c.campusResult()
	if err != nil {
		return nil, err
	}
	bw := res.BandwidthByAgent()
	r := &Report{ID: "Fig 10", Title: "Downstream bandwidth (Mbps) per software agent"}
	for _, prov := range fingerprint.AllProviders() {
		r.Printf("-- %s --", prov)
		for _, dev := range deviceOrder {
			agents := bw[prov][dev]
			names := make([]string, 0, len(agents))
			for a := range agents {
				names = append(names, a)
			}
			sort.Strings(names)
			for _, a := range names {
				box := agents[a]
				if box.N == 0 {
					continue
				}
				r.Printf("  %-8s %-16s median=%5.2f iqr=[%5.2f,%5.2f] n=%d",
					dev, a, box.Median, box.Q1, box.Q3, box.N)
				r.Metric(fmt.Sprintf("%s/%s/%s/median", prov, dev, a), box.Median)
			}
		}
	}
	r.Printf("paper shape: Netflix on PC browsers (except Safari) < 2 Mbps; native apps higher")
	return r, nil
}

// Fig11 regenerates the hourly data-usage patterns, PC vs mobile, per
// provider.
func Fig11(c *Context) (*Report, error) {
	res, err := c.campusResult()
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "Fig 11", Title: "Median hourly data usage (GB/hr), PC vs Mobile"}
	for _, prov := range fingerprint.AllProviders() {
		pc, mobile := res.HourlyUsage(prov)
		r.Printf("-- %s --", prov)
		row := "  hour:  "
		for h := 0; h < 24; h += 2 {
			row += fmt.Sprintf("%6d", h)
		}
		r.Lines = append(r.Lines, row)
		rowPC := "  PC:    "
		rowMob := "  mobile:"
		var peakHour int
		var peakVal float64
		for h := 0; h < 24; h += 2 {
			rowPC += fmt.Sprintf("%6.2f", pc[h])
			rowMob += fmt.Sprintf("%6.2f", mobile[h])
		}
		for h := 0; h < 24; h++ {
			if pc[h]+mobile[h] > peakVal {
				peakVal, peakHour = pc[h]+mobile[h], h
			}
		}
		r.Lines = append(r.Lines, rowPC, rowMob)
		r.Metric(prov.String()+"/peak_hour", float64(peakHour))
		r.Metric(prov.String()+"/pc_20h", pc[20])
		r.Metric(prov.String()+"/mobile_20h", mobile[20])
	}
	r.Printf("paper shape: YouTube plateau 16h–24h; Netflix sharp 20–22h peak; Amazon/Disney 19–23h")
	return r, nil
}
