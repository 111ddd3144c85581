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

// degradeFlags is a fault plan dense enough that every restore-time
// degradation fires: TOSS takes the lazy fallback on slow-tier outages,
// re-profiles stale profiles and re-snapshots corrupt ones, slow-only takes
// the lazy fallback and re-snapshots, DRAM re-snapshots, and REAP and
// FaaSnap take the lazy fallback when their prefetch dies.
const degradeFlags = " -requests 150 -window 4 -fault-rate 0.5 -fault-seed 3" +
	" -trace t.json -prom p.prom -csv c.csv -report i.json -slo 100ms -alerts -explain-top 3 -heatmap"

// TestOutputDigests pins what faasim prints and writes, byte for byte, in
// every mode: FNV-64a digests of stdout and of each file a run leaves in its
// working directory. The digests were recorded from the faasim that kept a
// separate post-run path per mode; any change to a digest is a change to
// faasim's output. The insight dumps' were re-recorded when each series
// dropped its buckets, downsamples and width_ns, the only bytes that moved,
// and replay-reap's and replay-faasnap's when REAP's and FaaSnap's first
// invocation began charging its snapshot capture to setup.
// The degrade-* cases pin a degraded serve's span tree, records and exports
// for each restore-time degradation policy of every mode; degrade-toss's
// trace and stdout were re-recorded when a refused tiered restore stopped
// leaving a zero-length phase:tiered span.
func TestOutputDigests(t *testing.T) {
	for _, c := range []struct {
		name, args string
		want       map[string]uint64
	}{
		{"replay-toss", "-mode toss" + exportFlags, map[string]uint64{
			"faasim-insight.json": 0x65d94ae7e262a244, "faasim-trace.json": 0x7db28f37f22801ab,
			"faasim.csv": 0x24242214a4c2b3bc, "faasim.prom": 0x437fb7753d126f36, "stdout": 0xb35395503ed9897d}},
		{"replay-reap", "-mode reap" + exportFlags, map[string]uint64{
			"faasim-insight.json": 0xa9bcb129d15948ae, "faasim-trace.json": 0x16b8ff17e54061cc,
			"faasim.csv": 0x14b8e0efb5ea8a9c, "faasim.prom": 0x95e34b8db86935f1, "stdout": 0x7bb8c64930c61696}},
		{"replay-faasnap", "-mode faasnap" + exportFlags, map[string]uint64{
			"faasim-insight.json": 0xa080b26d44a691b9, "faasim-trace.json": 0x9de771810d03955f,
			"faasim.csv": 0x3fc927b22a6e409d, "faasim.prom": 0xa3dcde8d15d082f4, "stdout": 0x276d5d532831107f}},
		{"replay-dram", "-mode dram" + exportFlags, map[string]uint64{
			"faasim-insight.json": 0x0be6a98c3247e84c, "faasim-trace.json": 0x2c80f9a383976472,
			"faasim.csv": 0x2d125e3160e78a80, "faasim.prom": 0xa3c1c3c57335d6fd, "stdout": 0x633df60615b82847}},
		{"replay-slow", "-mode slow" + exportFlags, map[string]uint64{
			"faasim-insight.json": 0x1969aec929fbbd19, "faasim-trace.json": 0x24de48910055047d,
			"faasim.csv": 0x44017eebd8f47b9d, "faasim.prom": 0xd295f299ee408a79, "stdout": 0x1d5103048542f967}},
		{"degrade-toss", "-mode toss" + degradeFlags, map[string]uint64{
			"c.csv": 0x429879f22105a1c7, "i.json": 0x7bf0a10f2fb8e3d8, "p.prom": 0xc203b08a3572f917,
			"stdout": 0x2b8c68a0850f7943, "t.json": 0xa535cfae7bb16a3f}},
		{"degrade-slow", "-mode slow" + degradeFlags, map[string]uint64{
			"c.csv": 0x5ad847f22e1e4ba0, "i.json": 0x00a2c4ce8eb56274, "p.prom": 0x1888365686489b60,
			"stdout": 0x98e8a815b00f31b0, "t.json": 0x1f63bbe090b9f7be}},
		{"degrade-dram", "-mode dram" + degradeFlags, map[string]uint64{
			"c.csv": 0x161b2f821f18fd02, "i.json": 0x6003dbba19280c72, "p.prom": 0xbdc9d314f65f7dc7,
			"stdout": 0xbcacd038a29567fa, "t.json": 0x093373ce53c89874}},
		{"degrade-reap", "-mode reap" + degradeFlags, map[string]uint64{
			"c.csv": 0xf1c9d9722a0397dc, "i.json": 0x6f964f831014a95e, "p.prom": 0x9f71291792257bbe,
			"stdout": 0xb10509a8c4d1cd82, "t.json": 0x92c358ba9f901a3d}},
		{"degrade-faasnap", "-mode faasnap" + degradeFlags, map[string]uint64{
			"c.csv": 0x16420fb4cf2f9ea3, "i.json": 0x8c0f474ee20145cc, "p.prom": 0x7f111ee844b3f7e9,
			"stdout": 0x7581dfddaf7d8cd2, "t.json": 0xb141b9863e0d7535}},
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
