// Control-plane membership changes (the paper's Fig. 8 / §4.3): the
// trusted bootstrap controller admits a fifth member mid-workload, the
// control plane re-deals key shares through the distributed resharing
// protocol — the group public key held by switches never changes — and a
// crashed controller is later detected and removed the same way.
//
//	go run ./examples/membership
package main

import (
	"fmt"
	"log"
	"time"

	"cicero"
	"cicero/internal/core"
	"cicero/internal/simnet"
)

func main() {
	topo, err := cicero.SinglePod(4, 1)
	if err != nil {
		log.Fatal(err)
	}
	net, err := cicero.New(cicero.Options{
		Topology:    topo,
		Controllers: 4,
		RealCrypto:  true,
		Seed:        11,
	})
	if err != nil {
		log.Fatal(err)
	}
	inner := net.Internal()
	dom := inner.Domains[0]
	originalPK := inner.Scheme.Params.PointBytes(dom.GroupKey.PK.Point)
	fmt.Printf("initial control plane: %v (t=%d)\n", dom.Members, dom.Controllers[0].Quorum())
	fmt.Printf("group public key: %x...\n\n", originalPK[:12])

	// Prepare a joining controller: its identity key is registered in the
	// PKI directory out of band, as §4.3 step (i) requires, and it boots
	// with public material only; its share arrives via resharing.
	joinerID := core.ControllerName(0, 5)
	if _, err := inner.Join(0, joinerID); err != nil {
		log.Fatal(err)
	}

	// Admit it through the bootstrap controller, with flows in flight.
	inner.Sim.Schedule(5*time.Millisecond, func() {
		fmt.Println("bootstrap controller proposes: ADD dom0/ctl/5")
		if err := dom.Controllers[0].RequestAddController(joinerID); err != nil {
			log.Fatal(err)
		}
	})
	flows := []cicero.Flow{
		{ID: 1, Src: cicero.Host(0, 0, 0, 0), Dst: cicero.Host(0, 0, 2, 0), SizeKB: 64},
		{ID: 2, Src: cicero.Host(0, 0, 1, 0), Dst: cicero.Host(0, 0, 3, 0), SizeKB: 64, Start: 6 * time.Millisecond},
		{ID: 3, Src: cicero.Host(0, 0, 3, 0), Dst: cicero.Host(0, 0, 0, 0), SizeKB: 64, Start: 80 * time.Millisecond},
	}
	results, err := net.Run(flows)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flows completed across the change: %d/3\n", len(results))
	fmt.Printf("control plane now: %v (phase %d, t=%d)\n",
		dom.Controllers[0].Members(), dom.Controllers[0].Phase(), dom.Controllers[0].Quorum())
	newPK := inner.Scheme.Params.PointBytes(dom.Controllers[0].GroupKey().PK.Point)
	fmt.Printf("public key unchanged after reshare: %v\n\n", string(originalPK) == string(newPK))

	// Now crash the newest member; the failure detector would normally
	// notice — here another member proposes the removal directly.
	fmt.Println("controller dom0/ctl/5 crashes; member 2 proposes: REMOVE")
	inner.Net.Crash(simnet.NodeID(joinerID))
	if err := dom.Controllers[1].RequestRemoveController(joinerID); err != nil {
		log.Fatal(err)
	}
	if _, err := inner.Sim.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("control plane now: %v (phase %d)\n",
		dom.Controllers[0].Members(), dom.Controllers[0].Phase())
	finalPK := inner.Scheme.Params.PointBytes(dom.Controllers[0].GroupKey().PK.Point)
	fmt.Printf("public key still unchanged: %v\n", string(originalPK) == string(finalPK))
}
