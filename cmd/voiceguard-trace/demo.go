package main

// The demo subcommand: builds a traced pipeline, runs a genuine session
// and a handful of machine attacks through it, and writes the resulting
// flight-recorder contents as JSONL. CI uses it to produce a sample trace
// dump artifact; the README's example tree comes from the same output.
//
// The pipeline is constructed through rebuild.System from an explicit
// evidence.Provenance recipe — the same recipe `pack build -demo` embeds
// in its packs — so a demo pack's provenance is exactly what this
// generator ran, not a parallel construction that could drift.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"voiceguard/internal/attack"
	"voiceguard/internal/core"
	"voiceguard/internal/device"
	"voiceguard/internal/evidence"
	"voiceguard/internal/evidence/rebuild"
	"voiceguard/internal/telemetry"
)

// demoPassphrase is the digit passphrase all demo sessions speak.
const demoPassphrase = "472913"

// demoProvenance is the construction recipe of the demo pipeline: the
// field seed plus, when the identity stage is on, a small background
// roster with the victim enrolled from the same seed.
func demoProvenance(seed int64, withASV bool) evidence.Provenance {
	p := evidence.Provenance{Generator: "demo", FieldSeed: seed}
	if withASV {
		p.ASV = &evidence.ASVProvenance{
			Seed: seed, Roster: 6, Sessions: 2, Utterances: 2, Digits: 6,
			Enroll: []evidence.EnrollProvenance{
				{User: "victim", Seed: seed, Passphrase: demoPassphrase, Utterances: 4},
			},
		}
	}
	return p
}

// demoSession is one generated demo attempt with its deterministic trace
// ID.
type demoSession struct {
	traceID string
	session *core.SessionData
}

// demoSessions builds the demo's attempt list: one genuine session plus n
// replay attacks through loudspeakers drawn from the device catalog.
func demoSessions(n int, seed int64) ([]demoSession, error) {
	victim := rebuild.Profile("victim", seed)
	sc := attack.Scenario{Distance: 0.06, ClaimedUser: "victim", Seed: seed}
	genuine, err := attack.Genuine(victim, sc)
	if err != nil {
		return nil, fmt.Errorf("building genuine session: %w", err)
	}
	out := []demoSession{{traceID: "demo-genuine", session: genuine}}
	recording, err := attack.Record(victim, demoPassphrase, seed)
	if err != nil {
		return nil, fmt.Errorf("recording victim: %w", err)
	}
	cat := device.Catalog()
	for i := 0; i < n; i++ {
		spk := cat[(i*5)%len(cat)]
		replaySc := sc
		replaySc.Seed = seed + int64(i) + 1
		session, err := attack.Replay(recording, spk, replaySc)
		if err != nil {
			return nil, fmt.Errorf("building replay session %d (%s %s): %w", i, spk.Maker, spk.Model, err)
		}
		out = append(out, demoSession{traceID: fmt.Sprintf("demo-replay-%d", i), session: session})
	}
	return out, nil
}

// runDemo implements the demo subcommand.
func runDemo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ContinueOnError)
	out := fs.String("o", "-", "output JSONL path (- for stdout)")
	n := fs.Int("n", 4, "number of replay-attack sessions")
	seed := fs.Int64("seed", 1, "scenario seed")
	withASV := fs.Bool("asv", true, "train and attach the speaker-identity stage")
	if err := fs.Parse(args); err != nil {
		return err
	}
	recorder := telemetry.NewFlightRecorder(*n + 2)
	records, err := generateDemo(recorder, *n, *seed, *withASV)
	if err != nil {
		return err
	}
	w := io.Writer(os.Stdout)
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("creating %s: %w", *out, err)
		}
		defer f.Close()
		w = f
	}
	if err := recorder.WriteJSONL(w); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d traces (%d sessions) to %s\n", len(recorder.Snapshot()), records, *out)
	return nil
}

// generateDemo runs 1 genuine + n replay sessions through a traced
// pipeline, filling recorder. It returns the session count.
func generateDemo(recorder *telemetry.FlightRecorder, n int, seed int64, withASV bool) (int, error) {
	sys, err := rebuild.System(demoProvenance(seed, withASV))
	if err != nil {
		return 0, err
	}
	sys.Tracer = telemetry.NewTracer(telemetry.TracerConfig{Recorder: recorder})
	sessions, err := demoSessions(n, seed)
	if err != nil {
		return 0, err
	}
	for i, ds := range sessions {
		if _, err := sys.VerifyContext(context.Background(), ds.traceID, ds.session); err != nil {
			return i, fmt.Errorf("verifying session %s: %w", ds.traceID, err)
		}
	}
	return len(sessions), nil
}
