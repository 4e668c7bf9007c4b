package main

// The pack subcommand family works with evidence packs — the
// self-contained digest-chained zips the server exports per decision:
//
//	pack build   -demo          assemble a pack from generated demo sessions
//	pack verify  <pack.zip>     integrity + internal-consistency check
//	pack inspect <pack.zip>     human summary of manifest/decisions/models
//	pack diff    <a.zip> <b.zip>  semantic comparison of two packs
//	pack replay  <pack.zip>     rebuild the producing system from the
//	                            pack's provenance and assert bit-identical
//	                            verdicts
//
// verify, diff and replay exit non-zero on any problem, difference or
// divergence, so they work as CI gates.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"voiceguard/internal/core"
	"voiceguard/internal/evidence"
	"voiceguard/internal/evidence/rebuild"
	"voiceguard/internal/protocol"
	"voiceguard/internal/ranging"
	"voiceguard/internal/telemetry"
)

// runPack dispatches the pack subcommand family.
func runPack(args []string) error {
	if len(args) < 1 {
		packUsage()
		return fmt.Errorf("pack: subcommand required")
	}
	switch args[0] {
	case "build":
		return runPackBuild(args[1:])
	case "verify":
		return runPackVerify(args[1:])
	case "inspect":
		return runPackInspect(args[1:])
	case "diff":
		return runPackDiff(args[1:])
	case "replay":
		return runPackReplay(args[1:])
	case "-h", "--help", "help":
		packUsage()
		return nil
	default:
		packUsage()
		return fmt.Errorf("pack: unknown subcommand %q", args[0])
	}
}

func packUsage() {
	fmt.Fprintln(os.Stderr, `usage:
  voiceguard-trace pack build -demo [-o pack.zip] [-seed N] [-n N] [-asv] [-redact none|digests]
  voiceguard-trace pack verify  <pack.zip>
  voiceguard-trace pack inspect <pack.zip>
  voiceguard-trace pack diff    <a.zip> <b.zip>
  voiceguard-trace pack replay  <pack.zip>`)
}

// runPackBuild assembles a demo evidence pack: the demo sessions run
// through the wire codec (encode + decode, the same lossy WAV round trip
// the server path takes) before verification, so the packed request is
// exactly what the cascade consumed and `pack replay` reproduces the
// verdicts bit-for-bit.
func runPackBuild(args []string) error {
	fs := flag.NewFlagSet("pack build", flag.ContinueOnError)
	out := fs.String("o", "pack.zip", "output pack path")
	demo := fs.Bool("demo", false, "build from generated demo sessions")
	seed := fs.Int64("seed", 1, "scenario seed")
	n := fs.Int("n", 2, "number of replay-attack sessions")
	withASV := fs.Bool("asv", true, "train and attach the speaker-identity stage")
	redact := fs.String("redact", evidence.RedactNone,
		"session redaction: none (replayable) or digests (audio replaced by content digests)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*demo {
		return fmt.Errorf("pack build: only -demo packs are built locally; live packs come from GET %s{trace_id}",
			"/debug/evidence/")
	}
	if *redact != evidence.RedactNone && *redact != evidence.RedactDigests {
		return fmt.Errorf("pack build: unknown redact mode %q (want %q or %q)",
			*redact, evidence.RedactNone, evidence.RedactDigests)
	}

	prov := demoProvenance(*seed, *withASV)
	sys, err := rebuild.System(prov)
	if err != nil {
		return err
	}
	recorder := telemetry.NewFlightRecorder(*n + 2)
	sys.Tracer = telemetry.NewTracer(telemetry.TracerConfig{Recorder: recorder})
	sessions, err := demoSessions(*n, *seed)
	if err != nil {
		return err
	}

	b := evidence.NewBuilder(time.Now())
	accepted := 0
	for _, ds := range sessions {
		req, err := protocol.FromSession(ds.session, ranging.DefaultPilotHz)
		if err != nil {
			return fmt.Errorf("packaging session %s: %w", ds.traceID, err)
		}
		decoded, err := protocol.ToSession(req)
		if err != nil {
			return fmt.Errorf("decoding session %s: %w", ds.traceID, err)
		}
		decision, err := sys.VerifyContext(context.Background(), ds.traceID, decoded)
		if err != nil {
			return fmt.Errorf("verifying session %s: %w", ds.traceID, err)
		}
		if decision.Accepted {
			accepted++
		}
		env, err := protocol.SessionEnvelopeFromRequest(ds.traceID, req, *redact)
		if err != nil {
			return fmt.Errorf("building session envelope %s: %w", ds.traceID, err)
		}
		b.AddDecision(core.DecisionEvidence(decision), recorder.Find(ds.traceID), env)
	}
	digests, err := sys.ModelDigests()
	if err != nil {
		return fmt.Errorf("digesting models: %w", err)
	}
	b.SetModels(digests, &prov)

	f, err := os.Create(*out)
	if err != nil {
		return fmt.Errorf("creating %s: %w", *out, err)
	}
	if err := b.WriteZip(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", *out, err)
	}
	fmt.Fprintf(os.Stderr, "packed %d decisions (%d accepted, %d rejected) into %s\n",
		len(sessions), accepted, len(sessions)-accepted, *out)
	return nil
}

// runPackVerify checks a pack's digest chain and internal consistency,
// exiting non-zero with one line per problem.
func runPackVerify(args []string) error {
	if len(args) != 1 {
		packUsage()
		return fmt.Errorf("pack verify: exactly one pack path required")
	}
	p, err := evidence.ReadFile(args[0])
	if err != nil {
		return err
	}
	if problems := evidence.Verify(p); len(problems) > 0 {
		for _, pr := range problems {
			fmt.Fprintln(os.Stderr, "  "+pr.String())
		}
		return fmt.Errorf("pack verify: %s: %d problems", args[0], len(problems))
	}
	fmt.Printf("ok: %s verified (%d members, %d decisions, root %s)\n",
		args[0], len(p.Manifest.Members), len(p.Decisions), p.Manifest.RootDigest)
	return nil
}

// runPackInspect prints a human summary of one pack.
func runPackInspect(args []string) error {
	if len(args) != 1 {
		packUsage()
		return fmt.Errorf("pack inspect: exactly one pack path required")
	}
	p, err := evidence.ReadFile(args[0])
	if err != nil {
		return err
	}
	m := p.Manifest
	fmt.Printf("pack %s\n", args[0])
	fmt.Printf("  schema %d, created %s, go %s", m.SchemaVersion, m.CreatedAt.Format(time.RFC3339), m.Build.GoVersion)
	if m.Build.Revision != "" {
		fmt.Printf(", rev %s", m.Build.Revision)
	}
	fmt.Println()
	fmt.Printf("  root %s\n", m.RootDigest)
	for _, mem := range m.Members {
		fmt.Printf("  member %-16s %7d bytes  %s\n", mem.Name, mem.Size, mem.Digest)
	}

	fmt.Printf("decisions (%d):\n", len(p.Decisions))
	for _, d := range p.Decisions {
		verdict := "ACCEPTED"
		if !d.Accepted {
			verdict = "REJECTED at " + d.FailedStage
		}
		fmt.Printf("  %s  %s  (%d stages, %dµs)\n", d.TraceID, verdict, len(d.Stages), d.ElapsedUS)
		for _, st := range d.Stages {
			mark := "pass"
			if !st.Pass {
				mark = "FAIL"
			}
			fmt.Printf("    %-12s %s  score=%g (bits %s)", st.Stage, mark, st.Score, st.ScoreBits)
			if st.Detail != "" {
				fmt.Printf("  %s", st.Detail)
			}
			fmt.Println()
		}
		if env, ok := p.Session(d.TraceID); ok {
			fmt.Printf("    session: redaction=%s digest=%s\n", env.Redaction, env.SessionDigest)
		} else {
			fmt.Printf("    session: (not packed)\n")
		}
	}

	fmt.Printf("models (%d digests):\n", len(p.Models.Digests))
	keys := make([]string, 0, len(p.Models.Digests))
	for k := range p.Models.Digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-24s %s\n", k, p.Models.Digests[k])
	}
	if prov := p.Models.Provenance; prov != nil {
		fmt.Printf("provenance: generator=%s field_seed=%d", prov.Generator, prov.FieldSeed)
		if prov.ASV != nil {
			fmt.Printf(" asv(seed=%d roster=%d enrolled=%d)", prov.ASV.Seed, prov.ASV.Roster, len(prov.ASV.Enroll))
		}
		fmt.Println()
	} else {
		fmt.Println("provenance: (none — pack cannot be replayed)")
	}
	return nil
}

// runPackDiff compares two packs semantically, exiting non-zero when they
// differ.
func runPackDiff(args []string) error {
	if len(args) != 2 {
		packUsage()
		return fmt.Errorf("pack diff: exactly two pack paths required")
	}
	a, err := evidence.ReadFile(args[0])
	if err != nil {
		return err
	}
	b, err := evidence.ReadFile(args[1])
	if err != nil {
		return err
	}
	diffs := evidence.DiffPacks(a, b)
	if len(diffs) == 0 {
		fmt.Printf("packs match: %s == %s\n", args[0], args[1])
		return nil
	}
	for _, d := range diffs {
		fmt.Fprintln(os.Stderr, "  "+d)
	}
	return fmt.Errorf("pack diff: %d differences", len(diffs))
}

// runPackReplay verifies a pack, rebuilds the producing system from its
// embedded provenance, gates on model-digest equality and replays every
// packed session, exiting non-zero unless every reproduced verdict is
// bit-identical to the packed one.
func runPackReplay(args []string) error {
	if len(args) != 1 {
		packUsage()
		return fmt.Errorf("pack replay: exactly one pack path required")
	}
	p, err := evidence.ReadFile(args[0])
	if err != nil {
		return err
	}
	if problems := evidence.Verify(p); len(problems) > 0 {
		for _, pr := range problems {
			fmt.Fprintln(os.Stderr, "  "+pr.String())
		}
		return fmt.Errorf("pack replay: refusing to replay a pack that fails verification (%d problems)", len(problems))
	}
	sys, err := rebuild.SystemFromPack(p)
	if err != nil {
		return err
	}
	if err := rebuild.CheckModels(p, sys); err != nil {
		return err
	}
	fmt.Printf("models ok: %d digests match the rebuilt system\n", len(p.Models.Digests))
	results, err := rebuild.Replay(p, sys)
	if err != nil {
		return err
	}
	diverged := 0
	for _, r := range results {
		if r.Match {
			fmt.Printf("  %s  bit-identical\n", r.TraceID)
			continue
		}
		diverged++
		fmt.Fprintf(os.Stderr, "  %s  DIVERGED:\n    %s\n", r.TraceID, strings.Join(r.Diffs, "\n    "))
	}
	if diverged > 0 {
		return fmt.Errorf("pack replay: %d of %d sessions diverged", diverged, len(results))
	}
	fmt.Printf("replayed %d sessions, all verdicts bit-identical\n", len(results))
	return nil
}
