// Securechannel: walk through the ObfusMem trust architecture of Section
// 3.1 — the three trust-bootstrapping approaches under different threat
// settings — then demonstrate the Section 3.5 communication authentication
// against an active bus attacker.
package main

import (
	"fmt"
	"log"

	"obfusmem"
)

func boot(label string, s obfusmem.BootScenario) {
	rep := obfusmem.SimulateBoot(s)
	switch {
	case rep.Err != nil:
		fmt.Printf("%-58s HALTED: %v\n", label, rep.Err)
	case rep.Compromised:
		fmt.Printf("%-58s ESTABLISHED but COMPROMISED (attacker holds the key!)\n", label)
	default:
		fmt.Printf("%-58s established securely\n", label)
	}
}

func main() {
	fmt.Println("== Section 3.1: trust bootstrapping ==")
	boot("naive, clean boot:", obfusmem.BootScenario{
		Approach: obfusmem.BootNaive, HonestIntegrator: true, MemoryObfusCapable: true, Seed: 1})
	boot("naive, boot-time MITM:", obfusmem.BootScenario{
		Approach: obfusmem.BootNaive, HonestIntegrator: true, MemoryObfusCapable: true,
		BootTimeMITM: true, Seed: 2})
	boot("trusted integrator, boot-time MITM:", obfusmem.BootScenario{
		Approach: obfusmem.BootTrustedIntegrator, HonestIntegrator: true,
		MemoryObfusCapable: true, BootTimeMITM: true, Seed: 3})
	boot("untrusted integrator burned wrong keys:", obfusmem.BootScenario{
		Approach: obfusmem.BootUntrustedIntegrator, HonestIntegrator: false,
		MemoryObfusCapable: true, Seed: 4})
	boot("untrusted integrator, non-ObfusMem memory chip:", obfusmem.BootScenario{
		Approach: obfusmem.BootUntrustedIntegrator, HonestIntegrator: true,
		MemoryObfusCapable: false, Seed: 5})
	boot("untrusted integrator, everything genuine:", obfusmem.BootScenario{
		Approach: obfusmem.BootUntrustedIntegrator, HonestIntegrator: true,
		MemoryObfusCapable: true, Seed: 6})

	fmt.Println("\n== Section 3.5: communication authentication under attack ==")
	attacks := []struct {
		kind obfusmem.TamperKind
		note string
	}{
		{obfusmem.TamperModify, "bit-flips in encrypted commands"},
		{obfusmem.TamperDrop, "deleting requests in flight"},
		{obfusmem.TamperReplay, "replaying old valid requests"},
		{obfusmem.TamperMAC, "corrupting the MAC field"},
		{obfusmem.TamperData, "corrupting data payloads (bus MAC does not cover data)"},
	}
	for _, a := range attacks {
		m, err := obfusmem.NewMachine(obfusmem.MachineConfig{
			Scheme: "obfusmem-auth", FullHandshake: true, Seed: 7})
		if err != nil {
			log.Fatal(err)
		}
		tmp := m.AttachTamperer(a.kind, 5)
		if _, err := m.RunBenchmark("lbm", 2000); err != nil {
			log.Fatal(err)
		}
		ev := m.SecurityEvents()
		fmt.Printf("%-14s mounted %4d, detected %4d  (%s)\n",
			a.kind, tmp.Attacked, ev.TamperDetected, a.note)
	}
	fmt.Println("\ndata corruption is caught by the Merkle integrity tree when the block is next read (Observation 4)")
}
