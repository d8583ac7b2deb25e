package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"godavix/internal/digest"
)

// DownloadMultiStream implements the paper's §2.4 "multi-stream" strategy:
// the resource is split into ChunkSize chunks and each chunk is fetched
// from a different replica in parallel (MaxStreams goroutines, replicas
// assigned round-robin). A chunk whose replica fails is retried on the
// next replica, so the download succeeds as long as one replica holds
// every byte. The paper notes this maximizes client bandwidth at the cost
// of server load.
//
// It needs a Metalink (Strategy is not consulted) and returns the object
// in memory; otherwise it is DownloadMultiStreamTo into a buffer, with the
// same streaming chunk engine, hedging and cancellation. Under
// VerifyTransfers an adler32/crc32 checksum is verified by the chunk
// rollup, so a mismatch names the offending chunk; an order-dependent one
// (md5) is checked over the whole buffer. A Metalink without a checksum
// then costs one HEAD to learn the server's.
func (c *Client) DownloadMultiStream(ctx context.Context, host, path string) ([]byte, error) {
	ml, err := c.GetMetalink(ctx, host, path)
	if err != nil {
		return nil, fmt.Errorf("davix: multi-stream needs a metalink: %w", err)
	}
	src, err := c.resolveSource(ctx, path, metalinkSource(Replica{Host: host, Path: path}, ml))
	if err != nil {
		return nil, err
	}
	out := make([]byte, src.size)
	verified, err := c.downloadChunks(ctx, path, src, &chunkBuf{buf: out})
	if err != nil {
		return nil, err
	}
	if algo, _, _ := strings.Cut(src.want, ":"); c.opts.VerifyTransfers && src.want != "" && !digest.Combinable(algo) {
		// The chunk digests cannot roll up into this checksum, but the
		// object is in memory: check it whole.
		if err := verifyChecksum(out, src.want, path, true); err != nil {
			if errors.Is(err, ErrChecksumMismatch) {
				c.metrics.checksumMismatches.Add(1)
			}
			return nil, err
		}
		verified = true
	}
	if verified {
		c.metrics.transfersVerified.Add(1)
	}
	return out, nil
}
