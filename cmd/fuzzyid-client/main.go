// Command fuzzyid-client is the biometric-device (BioD) side of the §V
// protocols, speaking to a fuzzyid-server over TCP.
//
//	fuzzyid-client -addr HOST:PORT newuser -dim 512 -out alice.vec
//	fuzzyid-client -addr HOST:PORT enroll  -id alice -vec alice.vec
//	fuzzyid-client -addr HOST:PORT reading -vec alice.vec -out probe.vec
//	fuzzyid-client -addr HOST:PORT verify  -id alice -vec probe.vec
//	fuzzyid-client -addr HOST:PORT identify -vec probe.vec [-normal]
//	fuzzyid-client -addr HOST:PORT revoke  -id alice -vec probe.vec
//	fuzzyid-client -addr HOST:PORT re-enroll -id alice -old probe.vec -vec alice2.vec
//	fuzzyid-client -addr HOST:PORT repl-status
//	fuzzyid-client -addr HOST:PORT tenant list
//	fuzzyid-client -addr HOST:PORT tenant create -name myapp
//	fuzzyid-client -addr HOST:PORT tenant drop -name myapp
//	fuzzyid-client -addr HOST:PORT tenant limits -name myapp
//	fuzzyid-client -addr HOST:PORT tenant limits -name myapp -set -rate 50 -burst 25 -weight 2 -bytes-per-session 4096
//	fuzzyid-client -addr HOST:PORT cluster map
//	fuzzyid-client -addr HOST:PORT cluster split -target HOST:PORT [-slots 0-15]
//	fuzzyid-client -addr HOST:PORT cluster move  -target HOST:PORT -slots 7,9
//
// Protocol subcommands accept -tenant NAME to address a tenant namespace
// other than the default (enroll/verify/identify/revoke);
// the tenant subcommand manages the namespaces themselves. Against a
// keyspace-sharded cluster (DESIGN.md §14), add -cluster to the protocol
// subcommands to route sessions to the owning partition and scatter-gather
// identification; the cluster subcommand prints the versioned slot map and
// drives live split/move handoffs (-addr must be the source primary).
//
// newuser and reading are local conveniences backed by the synthetic
// biometric source, so a full demo needs no external data.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fuzzyid"
	"fuzzyid/internal/biometric"
	"fuzzyid/internal/cluster"
	"fuzzyid/internal/vecfile"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fuzzyid-client:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fuzzyid-client", flag.ContinueOnError)
	var (
		addr   = fs.String("addr", "127.0.0.1:7700", "server address")
		scheme = fs.String("scheme", "ed25519", "signature scheme (must match the server)")
		ext    = fs.String("extractor", "hmac-sha256", "strong extractor (must match the server)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return errors.New("missing subcommand: newuser, reading, enroll, verify, identify, revoke, re-enroll, repl-status, tenant or cluster")
	}
	cmd, cmdArgs := rest[0], rest[1:]
	switch cmd {
	case "newuser":
		return cmdNewUser(cmdArgs)
	case "reading":
		return cmdReading(cmdArgs)
	case "enroll", "verify", "identify", "revoke":
		return cmdProtocol(cmd, cmdArgs, *addr, *scheme, *ext)
	case "re-enroll":
		return cmdReEnroll(cmdArgs, *addr, *scheme, *ext)
	case "repl-status":
		return cmdReplStatus(*addr, *scheme, *ext)
	case "tenant":
		return cmdTenant(cmdArgs, *addr, *scheme, *ext)
	case "cluster":
		return cmdCluster(cmdArgs, *addr, *scheme, *ext)
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

// cmdCluster inspects and reshapes a keyspace-sharded cluster: print the
// versioned map, or hand slots to another primary with a live split/move
// (OPERATIONS.md has the runbook).
func cmdCluster(args []string, addr, scheme, ext string) error {
	if len(args) == 0 {
		return errors.New("cluster: missing action (map, split or move)")
	}
	action, rest := args[0], args[1:]
	fs := flag.NewFlagSet("cluster "+action, flag.ContinueOnError)
	var (
		target    = fs.String("target", "", "split/move: the receiving primary's advertised address")
		slotsSpec = fs.String("slots", "", "split/move: slots to hand off, e.g. '0-7,12' (split default: half of the source's slots)")
		replicas  = fs.String("target-replicas", "", "split: comma-separated replica addresses of the new partition")
	)
	if err := fs.Parse(rest); err != nil {
		return err
	}
	sys, err := fuzzyid.NewSystem(
		fuzzyid.Params{Line: fuzzyid.PaperLine()},
		fuzzyid.WithSignatureScheme(scheme),
		fuzzyid.WithExtractor(ext),
	)
	if err != nil {
		return err
	}
	client, err := sys.Dial(addr, fuzzyid.WithCluster())
	if err != nil {
		return err
	}
	defer client.Close()
	m, err := client.ClusterMap()
	if err != nil {
		if fuzzyid.IsRejected(err) {
			return fmt.Errorf("%s is not a cluster node: %w", addr, err)
		}
		return err
	}
	switch action {
	case "map":
		fmt.Printf("version: %d\npartitions: %d\n", m.Version, len(m.Groups))
		for i, g := range m.Groups {
			line := fmt.Sprintf("  [%d] primary %s", i, g.Primary)
			if len(g.Replicas) > 0 {
				line += fmt.Sprintf(" replicas %s", strings.Join(g.Replicas, ","))
			}
			fmt.Printf("%s slots %s\n", line, cluster.FormatSlots(m.SlotsOwnedBy(i)))
		}
		return nil
	case "split", "move":
		if *target == "" {
			return fmt.Errorf("cluster %s: -target is required", action)
		}
		gi := m.GroupIndexOf(addr)
		if gi < 0 {
			return fmt.Errorf("cluster %s: -addr must be the source primary (%s leads no partition)", action, addr)
		}
		var slots []uint32
		if *slotsSpec != "" {
			slots, err = cluster.ParseSlots(*slotsSpec)
			if err != nil {
				return err
			}
		} else if action == "split" {
			owned := m.SlotsOwnedBy(gi)
			slots = owned[:len(owned)/2]
		} else {
			return errors.New("cluster move: -slots is required")
		}
		act := fuzzyid.PartitionSplit
		if action == "move" {
			act = fuzzyid.PartitionMove
		}
		var reps []string
		if *replicas != "" {
			reps = strings.Split(*replicas, ",")
		}
		version, err := client.PartitionHandoff(act, slots, *target, reps)
		if err != nil {
			return err
		}
		fmt.Printf("%s complete: slots %s now owned by %s (map version %d)\n",
			action, cluster.FormatSlots(slots), *target, version)
		return nil
	default:
		return fmt.Errorf("cluster: unknown action %q (want map, split or move)", action)
	}
}

// cmdTenant manages tenant namespaces: list the hosted ones, create a new
// one, drop one (irreversibly, with every record in it), or inspect and
// override a namespace's QoS envelope.
func cmdTenant(args []string, addr, scheme, ext string) error {
	if len(args) == 0 {
		return errors.New("tenant: missing action (list, create, drop or limits)")
	}
	action, rest := args[0], args[1:]
	fs := flag.NewFlagSet("tenant "+action, flag.ContinueOnError)
	var (
		name   = fs.String("name", "", "tenant name (create/drop/limits; empty = default for limits)")
		set    = fs.Bool("set", false, "limits: install an override instead of printing the envelope")
		rate   = fs.Float64("rate", 0, "limits -set: sustained sessions/second (0 = unlimited)")
		burst  = fs.Int("burst", 0, "limits -set: back-to-back session allowance (0 = one second of credit)")
		conc   = fs.Int("concurrency", 0, "limits -set: in-flight session cap (0 = unlimited)")
		weight = fs.Int("weight", 1, "limits -set: share of the identification scan pool")
		bytes  = fs.Int("bytes-per-session", 0, "limits -set: payload bytes one rate credit buys (0 = bytes uncharged)")
	)
	if err := fs.Parse(rest); err != nil {
		return err
	}
	sys, err := fuzzyid.NewSystem(
		fuzzyid.Params{Line: fuzzyid.PaperLine()},
		fuzzyid.WithSignatureScheme(scheme),
		fuzzyid.WithExtractor(ext),
	)
	if err != nil {
		return err
	}
	client, err := sys.Dial(addr)
	if err != nil {
		return err
	}
	defer client.Close()
	switch action {
	case "list":
		names, err := client.Tenants()
		if err != nil {
			return err
		}
		for _, n := range names {
			fmt.Println(n)
		}
		return nil
	case "create":
		if *name == "" {
			return errors.New("tenant create: -name is required")
		}
		if err := client.CreateTenant(*name); err != nil {
			return err
		}
		fmt.Printf("created tenant %q\n", *name)
		return nil
	case "drop":
		if *name == "" {
			return errors.New("tenant drop: -name is required")
		}
		if err := client.DropTenant(*name); err != nil {
			if tenant, ok := fuzzyid.IsUnknownTenant(err); ok {
				return fmt.Errorf("tenant %q does not exist", tenant)
			}
			return err
		}
		fmt.Printf("dropped tenant %q\n", *name)
		return nil
	case "limits":
		if *set {
			l := fuzzyid.QoSLimits{Rate: *rate, Burst: *burst, MaxConcurrent: *conc, Weight: *weight, BytesPerSession: *bytes}
			if err := client.SetTenantLimits(*name, l); err != nil {
				if tenant, ok := fuzzyid.IsUnknownTenant(err); ok {
					return fmt.Errorf("tenant %q does not exist", tenant)
				}
				return err
			}
			fmt.Printf("limits set: rate=%g/s burst=%d concurrency=%d weight=%d bytes-per-session=%d\n",
				l.Rate, l.Burst, l.MaxConcurrent, l.Weight, l.BytesPerSession)
			return nil
		}
		l, overridden, err := client.TenantLimits(*name)
		if err != nil {
			if tenant, ok := fuzzyid.IsUnknownTenant(err); ok {
				return fmt.Errorf("tenant %q does not exist", tenant)
			}
			if fuzzyid.IsRejected(err) {
				return fmt.Errorf("admission control disabled on the server: %w", err)
			}
			return err
		}
		source := "defaults"
		if overridden {
			source = "override"
		}
		fmt.Printf("rate: %g/s\nburst: %d\nconcurrency: %d\nweight: %d\nbytes-per-session: %d\nsource: %s\n",
			l.Rate, l.Burst, l.MaxConcurrent, l.Weight, l.BytesPerSession, source)
		return nil
	default:
		return fmt.Errorf("tenant: unknown action %q (want list, create, drop or limits)", action)
	}
}

// cmdReplStatus probes the server's replication role and progress — the
// quickest way to see whether a follower is connected and how far behind
// the primary it is.
func cmdReplStatus(addr, scheme, ext string) error {
	sys, err := fuzzyid.NewSystem(
		fuzzyid.Params{Line: fuzzyid.PaperLine()},
		fuzzyid.WithSignatureScheme(scheme),
		fuzzyid.WithExtractor(ext),
	)
	if err != nil {
		return err
	}
	client, err := sys.Dial(addr)
	if err != nil {
		return err
	}
	defer client.Close()
	st, err := client.ReplStatus()
	if err != nil {
		return err
	}
	fmt.Printf("role: %s\n", st.Role)
	if st.Primary != "" {
		fmt.Printf("primary: %s\n", st.Primary)
	}
	fmt.Printf("epoch: %x\napplied: %d\nlatest: %d\nlag: %d\nconnected: %v\n",
		st.Epoch, st.Applied, st.Latest, st.Lag, st.Connected)
	return nil
}

// cmdReEnroll replaces an enrollment's template online: -old is a reading
// that still matches the currently enrolled template (it answers the
// server's challenge, authorising the swap), -vec is the new template to
// install. One atomic mutation on the server — there is no window with no
// enrolled template, unlike revoke followed by enroll.
func cmdReEnroll(args []string, addr, scheme, ext string) error {
	fs := flag.NewFlagSet("re-enroll", flag.ContinueOnError)
	var (
		id      = fs.String("id", "", "user identity (required)")
		old     = fs.String("old", "", "reading matching the current template (required)")
		vec     = fs.String("vec", "", "replacement template vector file (required)")
		tenant  = fs.String("tenant", "", "tenant namespace (empty = default)")
		sharded = fs.Bool("cluster", false, "route across a sharded cluster (-addr is any member)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" || *old == "" || *vec == "" {
		return errors.New("re-enroll: -id, -old and -vec are required")
	}
	oldBio, err := vecfile.ReadFile(*old)
	if err != nil {
		return err
	}
	newBio, err := vecfile.ReadFile(*vec)
	if err != nil {
		return err
	}
	sys, err := fuzzyid.NewSystem(
		fuzzyid.Params{Line: fuzzyid.PaperLine()}, // dimension taken from the vectors
		fuzzyid.WithSignatureScheme(scheme),
		fuzzyid.WithExtractor(ext),
	)
	if err != nil {
		return err
	}
	opts := []fuzzyid.ClientOption{fuzzyid.WithTenant(*tenant)}
	if *sharded {
		opts = append(opts, fuzzyid.WithCluster())
	}
	client, err := sys.Dial(addr, opts...)
	if err != nil {
		return err
	}
	defer client.Close()
	start := time.Now()
	if err := client.ReEnroll(*id, oldBio, newBio); err != nil {
		if fuzzyid.IsRejected(err) {
			return fmt.Errorf("re-enrollment REJECTED: %w", err)
		}
		if name, ok := fuzzyid.IsUnknownTenant(err); ok {
			return fmt.Errorf("tenant %q does not exist", name)
		}
		return err
	}
	fmt.Printf("re-enrolled %q in %v\n", *id, time.Since(start).Round(time.Microsecond))
	return nil
}

// cmdNewUser generates a fresh random template.
func cmdNewUser(args []string) error {
	fs := flag.NewFlagSet("newuser", flag.ContinueOnError)
	var (
		dim  = fs.Int("dim", 512, "feature dimension")
		out  = fs.String("out", "", "output vector file (required)")
		seed = fs.Int64("seed", time.Now().UnixNano(), "template seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return errors.New("newuser: -out is required")
	}
	src, err := newSource(*dim, *seed)
	if err != nil {
		return err
	}
	u := src.NewUser("local")
	if err := vecfile.WriteFile(*out, u.Template); err != nil {
		return err
	}
	fmt.Printf("wrote %d-dimensional template to %s\n", *dim, *out)
	return nil
}

// cmdReading derives a noisy genuine reading from a stored template.
func cmdReading(args []string) error {
	fs := flag.NewFlagSet("reading", flag.ContinueOnError)
	var (
		vec  = fs.String("vec", "", "template vector file (required)")
		out  = fs.String("out", "", "output probe file (required)")
		seed = fs.Int64("seed", time.Now().UnixNano(), "noise seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *vec == "" || *out == "" {
		return errors.New("reading: -vec and -out are required")
	}
	template, err := vecfile.ReadFile(*vec)
	if err != nil {
		return err
	}
	src, err := newSource(len(template), *seed)
	if err != nil {
		return err
	}
	reading, err := src.GenuineReading(&biometric.User{ID: "local", Template: template})
	if err != nil {
		return err
	}
	if err := vecfile.WriteFile(*out, reading); err != nil {
		return err
	}
	fmt.Printf("wrote noisy reading to %s\n", *out)
	return nil
}

func cmdProtocol(cmd string, args []string, addr, scheme, ext string) error {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	var (
		id      = fs.String("id", "", "user identity (enroll/verify)")
		vec     = fs.String("vec", "", "vector file (required)")
		normal  = fs.Bool("normal", false, "identify: use the O(N) normal approach of Fig. 2")
		tenant  = fs.String("tenant", "", "tenant namespace (empty = default)")
		sharded = fs.Bool("cluster", false, "route across a sharded cluster (-addr is any member)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *vec == "" {
		return fmt.Errorf("%s: -vec is required", cmd)
	}
	bio, err := vecfile.ReadFile(*vec)
	if err != nil {
		return err
	}
	sys, err := fuzzyid.NewSystem(
		fuzzyid.Params{Line: fuzzyid.PaperLine()}, // dimension taken from the vector
		fuzzyid.WithSignatureScheme(scheme),
		fuzzyid.WithExtractor(ext),
	)
	if err != nil {
		return err
	}
	opts := []fuzzyid.ClientOption{fuzzyid.WithTenant(*tenant)}
	if *sharded {
		opts = append(opts, fuzzyid.WithCluster())
	}
	client, err := sys.Dial(addr, opts...)
	if err != nil {
		return err
	}
	defer client.Close()

	start := time.Now()
	switch cmd {
	case "enroll":
		if *id == "" {
			return errors.New("enroll: -id is required")
		}
		if err := client.Enroll(*id, bio); err != nil {
			if name, ok := fuzzyid.IsUnknownTenant(err); ok {
				return fmt.Errorf("tenant %q does not exist — create it with: fuzzyid-client tenant create -name %s", name, name)
			}
			return err
		}
		fmt.Printf("enrolled %q in %v\n", *id, time.Since(start).Round(time.Microsecond))
	case "verify":
		if *id == "" {
			return errors.New("verify: -id is required")
		}
		if err := client.Verify(*id, bio); err != nil {
			if fuzzyid.IsRejected(err) {
				return fmt.Errorf("verification REJECTED: %w", err)
			}
			return err
		}
		fmt.Printf("verified %q in %v\n", *id, time.Since(start).Round(time.Microsecond))
	case "identify":
		var gotID string
		if *normal {
			gotID, err = client.IdentifyNormal(bio)
		} else {
			gotID, err = client.Identify(bio)
		}
		if err != nil {
			if fuzzyid.IsRejected(err) {
				return fmt.Errorf("identification REJECTED: %w", err)
			}
			return err
		}
		fmt.Printf("identified as %q in %v\n", gotID, time.Since(start).Round(time.Microsecond))
	case "revoke":
		if *id == "" {
			return errors.New("revoke: -id is required")
		}
		if err := client.Revoke(*id, bio); err != nil {
			if fuzzyid.IsRejected(err) {
				return fmt.Errorf("revocation REJECTED: %w", err)
			}
			return err
		}
		fmt.Printf("revoked %q in %v\n", *id, time.Since(start).Round(time.Microsecond))
	}
	return nil
}

func newSource(dim int, seed int64) (*biometric.Source, error) {
	fe, err := fuzzyid.NewExtractor(fuzzyid.Params{Line: fuzzyid.PaperLine()})
	if err != nil {
		return nil, err
	}
	return biometric.NewSource(fe.Line(), biometric.Paper(dim), seed)
}
