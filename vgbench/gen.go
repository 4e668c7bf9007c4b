package main

// Input generation. Everything a workload sends is derived from --seed
// here, before the server exists; the program under test receives only
// these generated sessions, voices and enrollment sets.

import (
	"fmt"
	"math/rand"

	"voiceguard/internal/attack"
	"voiceguard/internal/audio"
	"voiceguard/internal/core"
	"voiceguard/internal/device"
	"voiceguard/internal/speech"
)

// Population and pool sizes shared by every workload. All speech is
// rendered clean, as a phone held at the mouth records it, so the UBM,
// the enrollments and the claims share one channel.
const (
	passphrase = "472913"
	// numUsers is the enrolled population. It exceeds modelCacheSize so
	// asv-churn's claims keep evicting compiled speaker models.
	numUsers = 48
	// mixVictims are the users the two session mixes authenticate as.
	mixVictims = 16
	// Per mix victim: genuine, replay and imitation sessions in the pool.
	// Imitation is the one attack whose verdict varies by victim, so it
	// gets the most sessions.
	genuinePerVictim   = 1
	replayPerVictim    = 1
	imitationPerVictim = 3
	// enrollUtterances voices enroll each user; heldOutVoices more set
	// the identity threshold and serve as asv-churn's claims.
	enrollUtterances = 4
	heldOutVoices    = 2
	// Background corpus the UBM is trained on.
	ubmSpeakers, ubmSessions, ubmUtterances = 12, 2, 2
)

// Session classes and their labels.
const (
	classGenuine   = "genuine"
	classReplay    = "replay"
	classImitation = "imitation"
)

// mixSession is one pooled verification session with its ground-truth
// label.
type mixSession struct {
	class   string
	user    string
	session *core.SessionData
	// attack is true for every class but genuine.
	attack bool
}

// user is one enrolled identity with its enrollment audio and held-out
// genuine voices, all as 16-bit WAV transport delivers them.
type user struct {
	name    string
	profile speech.Profile
	enroll  [][]*audio.Signal
	heldOut []*audio.Signal
}

// inputs is everything one seed generates.
type inputs struct {
	seed       int64
	background map[string][][]*audio.Signal
	users      []user
	pool       []mixSession
}

// generate derives a workload's inputs from its seed. needPool skips the
// session pool when the workload sends no full sessions.
func generate(seed int64, needPool bool) (*inputs, error) {
	in := &inputs{seed: seed}
	bg, err := backgroundCorpus(seed)
	if err != nil {
		return nil, err
	}
	in.background = bg
	roster := speech.NewDistinctRoster(numUsers, seed+11, 1.0)
	for i := 0; i < numUsers; i++ {
		p := roster.Profile(i)
		p.Name = fmt.Sprintf("user%02d", i)
		u := user{name: p.Name, profile: p}
		rng := rand.New(rand.NewSource(seed + 1000 + int64(i)))
		synth, err := speech.NewSynthesizer(p, rng)
		if err != nil {
			return nil, fmt.Errorf("gen: synthesizer for %s: %w", p.Name, err)
		}
		var sess []*audio.Signal
		for k := 0; k < enrollUtterances; k++ {
			utt, err := synth.SayDigits(passphrase)
			if err != nil {
				return nil, fmt.Errorf("gen: enrollment voice for %s: %w", p.Name, err)
			}
			w, err := wireSignal(utt)
			if err != nil {
				return nil, err
			}
			sess = append(sess, w)
		}
		u.enroll = [][]*audio.Signal{sess}
		for k := 0; k < heldOutVoices; k++ {
			utt, err := synth.SayDigits(passphrase)
			if err != nil {
				return nil, fmt.Errorf("gen: held-out voice for %s: %w", p.Name, err)
			}
			w, err := wireSignal(utt)
			if err != nil {
				return nil, err
			}
			u.heldOut = append(u.heldOut, w)
		}
		in.users = append(in.users, u)
	}
	if needPool {
		if in.pool, err = sessionPool(seed, in.users[:mixVictims]); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// backgroundCorpus renders the UBM training speakers, each saying
// random digit strings, grouped speaker → session → utterances.
func backgroundCorpus(seed int64) (map[string][][]*audio.Signal, error) {
	roster := speech.NewRoster(ubmSpeakers, seed+1)
	out := make(map[string][][]*audio.Signal)
	for i := 0; i < roster.Len(); i++ {
		p := roster.Profile(i)
		synth, err := speech.NewSynthesizer(p, rand.New(rand.NewSource(seed+500+int64(i))))
		if err != nil {
			return nil, fmt.Errorf("gen: background synthesizer: %w", err)
		}
		for s := 0; s < ubmSessions; s++ {
			var sess []*audio.Signal
			for k := 0; k < ubmUtterances; k++ {
				utt, err := synth.SayDigits(roster.RandomDigits(len(passphrase)))
				if err != nil {
					return nil, fmt.Errorf("gen: background voice: %w", err)
				}
				sess = append(sess, utt)
			}
			out[p.Name] = append(out[p.Name], sess)
		}
	}
	return out, nil
}

// sessionPool renders the mixes' distinct sessions: genuine logins of
// each victim, replays of a recording of the victim through the
// device.Catalog loudspeakers, and practiced imitations by outsiders.
func sessionPool(seed int64, victims []user) ([]mixSession, error) {
	speakers := device.Catalog()
	imposters := speech.NewDistinctRoster(3, seed+9, 1.2).Profiles()
	var pool []mixSession
	add := func(class string, v user, s *core.SessionData, err error) error {
		if err != nil {
			return fmt.Errorf("gen: %s session for %s: %w", class, v.name, err)
		}
		pool = append(pool, mixSession{class: class, user: v.name, session: s, attack: class != classGenuine})
		return nil
	}
	for vi, v := range victims {
		base := seed + 100000*int64(vi+1)
		for i := 0; i < genuinePerVictim; i++ {
			s, err := attack.Genuine(v.profile, attack.Scenario{Seed: base + int64(i), ClaimedUser: v.name})
			if err := add(classGenuine, v, s, err); err != nil {
				return nil, err
			}
		}
		rec, err := attack.Record(v.profile, passphrase, base+7)
		if err != nil {
			return nil, fmt.Errorf("gen: recording %s: %w", v.name, err)
		}
		for i := 0; i < replayPerVictim; i++ {
			spk := speakers[(vi*replayPerVictim+i)%len(speakers)]
			sc := attack.Scenario{Seed: base + 2000 + int64(i), Distance: 0.05, ClaimedUser: v.name}
			s, err := attack.Replay(rec, spk, sc)
			if err := add(classReplay, v, s, err); err != nil {
				return nil, err
			}
		}
		for i := 0; i < imitationPerVictim; i++ {
			sc := attack.Scenario{Seed: base + 3000 + int64(i), Distance: 0.05, ClaimedUser: v.name}
			s, err := attack.Imitation(imposters[(vi+i)%len(imposters)], v.profile, speech.ImitatorPracticed, sc)
			if err := add(classImitation, v, s, err); err != nil {
				return nil, err
			}
		}
	}
	return pool, nil
}

// pick draws one pool session of a class.
func (in *inputs) pick(rng *rand.Rand, class string) int {
	var idx []int
	for i, s := range in.pool {
		if s.class == class {
			idx = append(idx, i)
		}
	}
	return idx[rng.Intn(len(idx))]
}
