// Command archive runs the study and archives everything the way the
// study's release does: per-(environment, application) result datasets as
// ORAS artifacts, plus the full event trace — all content-addressed in an
// OCI registry (the paper's release carries 25,541 datasets this way).
//
// With -store DIR the registry is backed by the persistent on-disk store
// shared with the result cache, so the archive survives the process:
// re-running archive against the same store deduplicates every unchanged
// blob, and the study itself is served warm from the store instead of
// recomputed.
//
// Usage:
//
//	archive [-spec FILE] [-seed N] [-store DIR] [-progress auto|on|off] [-verify]
package main

import (
	"flag"
	"fmt"
	"os"

	"cloudhpc/internal/cli"
	"cloudhpc/internal/dataset"
	"cloudhpc/internal/oras"
)

func main() {
	study := cli.Register(flag.CommandLine, "")
	verify := flag.Bool("verify", true, "pull every artifact back and verify digests")
	flag.Parse()

	rs, err := study.OpenStore()
	if err != nil {
		fatal(err)
	}
	res, _, err := study.Run()
	if err != nil {
		cli.Fail("archive", err)
	}

	// Share the result store's registry when one is configured: the
	// archive then lands in the same content-addressed store as the
	// cached studies and persists across runs.
	var reg *oras.Registry
	if rs != nil {
		reg = rs.Registry()
	} else {
		reg = oras.NewRegistry()
	}

	tags, err := dataset.Push(reg, res.Records())
	if err != nil {
		fatal(err)
	}

	traceData, err := res.Log.MarshalJSONL()
	if err != nil {
		fatal(err)
	}
	traceDigest, err := reg.Push("trace/study", "application/vnd.cloudhpc.trace.v1",
		map[string][]byte{"events.jsonl": traceData}, nil)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("archived %d result artifacts + 1 trace artifact\n", len(tags))
	fmt.Printf("registry: %d blobs, %d manifests\n", reg.BlobCount(), reg.ManifestCount())
	fmt.Printf("trace: %s (%d events, %d bytes)\n", traceDigest, res.Log.Len(), len(traceData))

	if *verify {
		records := 0
		for _, tag := range tags {
			recs, err := dataset.Load(reg, tag)
			if err != nil {
				fatal(fmt.Errorf("verify %s: %w", tag, err))
			}
			records += len(recs)
		}
		if records != len(res.Runs) {
			fatal(fmt.Errorf("verify: archive holds %d records, study produced %d", records, len(res.Runs)))
		}
		fmt.Printf("verified: %d records across %d artifacts match the study dataset\n", records, len(tags))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "archive:", err)
	os.Exit(1)
}
