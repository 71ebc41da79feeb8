// Clusterwatch: the system-administrator scenario that motivates the
// paper — detect failing nodes from monitoring data alone. A 48-node
// cluster runs a production-like workload while two faults are
// injected mid-run (a cooling failure and a node crash). The watcher
// uses only what MonSTer stores: Health transitions from the BMCs,
// and k-means anomaly ranking over the nine-dimensional health
// vectors.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"monster"
)

func main() {
	sys := monster.New(monster.Config{Nodes: 48, Seed: 7})
	ctx := context.Background()

	// Let the cluster reach a steady working state.
	if err := sys.AdvanceCollecting(ctx, 45*time.Minute); err != nil {
		log.Fatal(err)
	}

	// Fault injection: one node loses cooling under load, and one
	// currently-busy node goes down hard (so running jobs are killed).
	hot := sys.Nodes.Node(4)
	dead := sys.Nodes.Node(8)
	for _, rep := range sys.QMaster.HostReports() {
		if rep.SlotsUsed > 0 && rep.Host != hot.Name() {
			if n, ok := sys.Nodes.ByName(rep.Host); ok {
				dead = n
				break
			}
		}
	}
	hot.ForceLoad(1.0, 150)
	hot.Inject(monster.FaultOverheat)
	dead.Inject(monster.FaultHostDown)
	fmt.Printf("injected: cooling failure on %s, crash on %s\n\n", hot.Name(), dead.Name())

	if err := sys.AdvanceCollecting(ctx, 45*time.Minute); err != nil {
		log.Fatal(err)
	}

	// 1. Health transitions: the paper's pre-processing stores only
	// state changes, so anomalies are exactly the stored rows.
	fmt.Println("== health transitions stored in the last 45 minutes ==")
	since := sys.Now().Add(-45 * time.Minute).Unix()
	res, err := sys.DB.Query(fmt.Sprintf(
		`SELECT "Status" FROM "Health" WHERE time >= %d GROUP BY "NodeId"`, since))
	if err != nil {
		log.Fatal(err)
	}
	alerts := 0
	for _, s := range res.Series {
		node, _ := s.Tags.Get("NodeId")
		for _, row := range s.Rows() {
			state := []string{"OK", "Warning", "Critical"}[row.Values[0].I]
			fmt.Printf("  %s  %s -> %s\n", time.Unix(row.Time, 0).UTC().Format("15:04:05"), node, state)
			if row.Values[0].I > 0 {
				alerts++
			}
		}
	}
	fmt.Printf("  (%d abnormal transitions)\n\n", alerts)

	// 2. Cluster + anomaly ranking over live health vectors — the
	// HiperJobViz view (Fig 9): the faulted nodes must surface at the
	// top.
	ids := make([]string, sys.Nodes.Len())
	vecs := make([][]float64, sys.Nodes.Len())
	for i := 0; i < sys.Nodes.Len(); i++ {
		hv := sys.Nodes.Node(i).HealthVector()
		ids[i] = sys.Nodes.Node(i).Name()
		vecs[i] = hv[:]
	}
	bounds := monster.ComputeBounds(vecs)
	norm := monster.Normalize(vecs, bounds)
	km, err := monster.KMeans(norm, monster.KMeansOptions{K: 7, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== k-means host groups (k=7, nine health metrics) ==")
	for c, size := range km.Sizes {
		fmt.Printf("  group %d: %d nodes\n", c+1, size)
	}

	// Rank nodes by distance from the dominant ("normal status") group
	// centroid — a singleton outlier cluster is itself the anomaly.
	normalGroup := 0
	for c, size := range km.Sizes {
		if size > km.Sizes[normalGroup] {
			normalGroup = c
		}
	}
	type scored struct {
		idx  int
		dist float64
	}
	scoredNodes := make([]scored, len(norm))
	for i, v := range norm {
		var d float64
		for dim, x := range v {
			diff := x - km.Centroids[normalGroup][dim]
			d += diff * diff
		}
		scoredNodes[i] = scored{i, d}
	}
	sort.Slice(scoredNodes, func(a, b int) bool { return scoredNodes[a].dist > scoredNodes[b].dist })

	fmt.Println("\n== top anomalies (distance from the normal group) ==")
	for i := 0; i < 5 && i < len(scoredNodes); i++ {
		idx := scoredNodes[i].idx
		r := sys.Nodes.Node(idx).Readings()
		fmt.Printf("  %d. %-6s cpu=%.0f/%.0f °C power=%.0f W state=%s health=%s\n",
			i+1, ids[idx], r.CPUTempC[0], r.CPUTempC[1], r.PowerW, r.PowerState, r.HostHealth)
	}
	if top := ids[scoredNodes[0].idx]; top != hot.Name() && top != dead.Name() {
		fmt.Println("  (note: expected a faulted node on top)")
	}

	// 3. The resource manager's view: the dead host was detected and
	// its jobs failed over.
	fmt.Println("\n== resource manager ==")
	failed := 0
	for _, rec := range sys.QMaster.Accounting(sys.Config.Start) {
		if rec.Failed {
			failed++
		}
	}
	fmt.Printf("  jobs failed by the crash: %d\n", failed)
	fmt.Printf("  slots in use on surviving nodes: %d\n", sys.QMaster.SlotsInUse())
}
