package main

import (
	"bytes"
	"flag"
	"hash/fnv"
	"maps"
	"os"
	"strings"
	"testing"
)

// runFaasim runs faasim in-process on args, in a fresh working directory,
// and returns its stdout, its diagnostic line and exit status (0 on
// success), and the dashboard -http would serve.
func runFaasim(t *testing.T, args string) (stdout, diag string, code int, dash *dashboard) {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(dir) })
	o, err := parseOptions(flag.NewFlagSet("faasim", flag.ContinueOnError), strings.Fields(args))
	var out bytes.Buffer
	if err == nil {
		dash, err = o.run(&out)
	}
	if err != nil {
		diag, code = diagnose(err)
	}
	return out.String(), diag, code, dash
}

func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// exportFlags are CI's flight-recorder export flags, at a reduced -requests.
const exportFlags = " -requests 40 -window 8 -heatmap -prom faasim.prom -csv faasim.csv" +
	" -trace faasim-trace.json -fault-rate 0.05 -slo 300ms -report faasim-insight.json"

// TestOutputDigests pins what faasim prints and writes, byte for byte, in
// every mode: FNV-64a digests of stdout and of each file a run leaves in its
// working directory. The digests were recorded from the faasim that kept a
// separate post-run path per mode; any change to a digest is a change to
// faasim's output. The insight dumps' were re-recorded when each series
// dropped its buckets, downsamples and width_ns, the only bytes that moved.
func TestOutputDigests(t *testing.T) {
	for _, c := range []struct {
		name, args string
		want       map[string]uint64
	}{
		{"replay-toss", "-mode toss" + exportFlags, map[string]uint64{
			"faasim-insight.json": 0x65d94ae7e262a244, "faasim-trace.json": 0x7db28f37f22801ab,
			"faasim.csv": 0x24242214a4c2b3bc, "faasim.prom": 0x437fb7753d126f36, "stdout": 0xb35395503ed9897d}},
		{"replay-reap", "-mode reap" + exportFlags, map[string]uint64{
			"faasim-insight.json": 0xcbb27872ffb48bc3, "faasim-trace.json": 0xac0100a01ac17816,
			"faasim.csv": 0xe2078d7c936e76b2, "faasim.prom": 0xe11e869f8fd0668b, "stdout": 0x4bf83d925c627036}},
		{"replay-faasnap", "-mode faasnap" + exportFlags, map[string]uint64{
			"faasim-insight.json": 0xa5240ddba7513e4d, "faasim-trace.json": 0x01180cbfea5a4d21,
			"faasim.csv": 0x8203788b8bde617d, "faasim.prom": 0x7c0a25ff3f975141, "stdout": 0x29d573834203b3e2}},
		{"replay-dram", "-mode dram" + exportFlags, map[string]uint64{
			"faasim-insight.json": 0x0be6a98c3247e84c, "faasim-trace.json": 0x2c80f9a383976472,
			"faasim.csv": 0x2d125e3160e78a80, "faasim.prom": 0xa3c1c3c57335d6fd, "stdout": 0x633df60615b82847}},
		{"replay-slow", "-mode slow" + exportFlags, map[string]uint64{
			"faasim-insight.json": 0x1969aec929fbbd19, "faasim-trace.json": 0x24de48910055047d,
			"faasim.csv": 0x44017eebd8f47b9d, "faasim.prom": 0xd295f299ee408a79, "stdout": 0x1d5103048542f967}},
		{"replay-explain",
			"-requests 40 -window 8 -explain -explain-top 2 -slo 60ms -alerts -flame -trace trace.jsonl -trace-format jsonl",
			map[string]uint64{"stdout": 0xf62713dff936fba6, "trace.jsonl": 0xffb469ed2bd8ca27}},
		{"cluster-rr-poisson-reap", "-nodes 3 -horizon 5s -router rr -arrival poisson -mode reap",
			map[string]uint64{"stdout": 0x1a6f28701d6751ef}},
		{"cluster-least-diurnal-dram", "-nodes 3 -horizon 5s -router least -arrival diurnal -mode dram -autoscale",
			map[string]uint64{"stdout": 0x83fc07b750d7891f}},
		// -slo-window sets the window of the 250ms default objective's
		// report too: stdout ends with "peak 2s-windowed burn".
		{"cluster-slo-window", "-nodes 3 -horizon 5s -slo-window 2s",
			map[string]uint64{"stdout": 0x182bb1c11c58b20f}},
		{"cluster-affinity-flash-observed",
			"-nodes 3 -horizon 5s -router affinity -arrival flash -autoscale -fleetview" +
				" -decision-log decisions.jsonl -fleet-trace fleet-trace.json -slo 120ms -alerts" +
				" -report insight.json -explain -explain-top 2",
			map[string]uint64{
				"decisions.jsonl": 0x5c39ecad340c78b2, "fleet-trace.json": 0xbfb3c2f27b96f86b,
				"insight.json": 0xf17c3fbadb11807d, "stdout": 0x690f4db866b603e7}},
		{"migrate-demo", "-migrate-demo -functions pagerank", map[string]uint64{"stdout": 0x03aa0fb6ba8b32da}},
	} {
		t.Run(c.name, func(t *testing.T) {
			stdout, diag, code, _ := runFaasim(t, c.args)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, diag)
			}
			got := map[string]uint64{"stdout": digest([]byte(stdout))}
			entries, err := os.ReadDir(".")
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				b, err := os.ReadFile(e.Name())
				if err != nil {
					t.Fatal(err)
				}
				got[e.Name()] = digest(b)
			}
			if !maps.Equal(got, c.want) {
				t.Errorf("digests:\n got %#v\nwant %#v", got, c.want)
			}
		})
	}
}

// TestUsageErrors pins the one-line diagnostic of each flag combination no
// run can mean: it exits 2 before printing anything. The mode-specific
// conflict checks keep their order, so each line names the same flag pair.
func TestUsageErrors(t *testing.T) {
	known := "(known: [compress float_operation image_processing json_load_dump linpack lr_serving lr_training matmul pagerank pyaes])"
	for _, c := range []struct{ args, want string }{
		{"-requests -5", "faasim: -requests must be at least 0 (got -5)"},
		{"-workers 0", "faasim: -workers must be at least 1 (got 0)"},
		{"-slo-window 0s", "faasim: -slo-window must be positive (got 0s)"},
		{"-nodes 2 -slo-window -1s", "faasim: -slo-window must be positive (got -1s)"},
		{"-record-interval 0s", "faasim: -record-interval must be positive (got 0s)"},
		{"-record-interval -5s", "faasim: -record-interval must be positive (got -5s)"},
		{"-window 0", "faasim: core: ConvergenceWindow 0 < 1"},
		{"-nodes 2 -window -3", "faasim: core: ConvergenceWindow -3 < 1"},
		{"-migrate-demo -window 0", "faasim: core: ConvergenceWindow 0 < 1"},
		{"-mode bogus", `faasim: unknown mode "bogus"`},
		{"-functions bogus", `faasim: unknown function "bogus" ` + known},
		{"-nodes 2 -functions pyaes,bogus", `faasim: unknown function "bogus" ` + known},
		{"-migrate-demo -functions bogus", `faasim: unknown function "bogus" ` + known},
		{"-trace x.json -trace-format xml", `faasim: unknown trace format "xml" (want chrome or jsonl)`},
		{"-fault-rate 2", "faasim: fault: site slow-read rate 2 outside [0, 1]"},
		{"-alerts", "faasim: -alerts requires -slo (alert rules burn against the -slo latency objective)"},
		{"-report r.json", "faasim: -report requires -slo (alert rules burn against the -slo latency objective)"},
		{"-router rr", "faasim: -router requires -nodes (cluster mode routes through the fleet simulator)"},
		{"-fleetview", "faasim: -fleetview requires -nodes (cluster mode routes through the fleet simulator)"},
		{"-nodes 2 -trace x.json", "faasim: -nodes and -trace are mutually exclusive (the cluster simulator replays a modeled fleet, not the microVM platform)"},
		{"-nodes 2 -workers 2", "faasim: -nodes and -workers are mutually exclusive (the cluster simulator replays a modeled fleet, not the microVM platform)"},
		{"-nodes 2 -fault-rate 0.1", "faasim: -nodes and -fault-rate are mutually exclusive (the cluster simulator replays a modeled fleet, not the microVM platform)"},
		{"-nodes 2 -horizon 1s -record-interval 50ms", "faasim: -nodes and -record-interval are mutually exclusive (the cluster simulator replays a modeled fleet, not the microVM platform)"},
		{"-nodes 2 -mode slow", "faasim: -mode slow has no cluster profile (cluster mode supports toss, reap, faasnap, dram)"},
		{"-nodes 2 -router bogus", `faasim: cluster: unknown router policy "bogus" (want rr, least, or affinity)`},
		{"-nodes 2 -arrival bogus", `faasim: workload: unknown arrival process "bogus" (want poisson, diurnal, flash, or diurnalflash)`},
		{"-migrate-demo -nodes 2", "faasim: -migrate-demo and -nodes are mutually exclusive (the migration demo drives one engine, not a fleet)"},
		{"-migrate-demo -functions pagerank -prom x.prom -trace t.json -fault-rate 0.5 -router rr",
			"faasim: -migrate-demo and -fault-rate are mutually exclusive (the migration demo reads only -functions, -window and -seed)"},
		{"-migrate-demo -http :0 -mode reap -requests 5",
			"faasim: -migrate-demo and -http are mutually exclusive (the migration demo reads only -functions, -window and -seed)"},
		{"-migrate-demo -mode toss", "faasim: -migrate-demo and -mode are mutually exclusive (the migration demo reads only -functions, -window and -seed)"},
		{"-migrate-demo -nodes 2 -alerts", "faasim: -migrate-demo and -alerts are mutually exclusive (the migration demo reads only -functions, -window and -seed)"},
	} {
		stdout, diag, code, _ := runFaasim(t, c.args)
		if code != 2 || diag != c.want || stdout != "" {
			t.Errorf("faasim %s: exit %d, stdout %q, diagnostic\n %q\nwant exit 2 and\n %q", c.args, code, stdout, diag, c.want)
		}
	}
}
