// Package rpc layers typed request/response calls and service dispatch on
// top of the transport package.
//
// The paper assumes an "RPC service: provide an object invocation facility
// through an RPC mechanism" (§2.2). This package is that service.
// Application-level errors travel inside a response frame so that they
// survive any transport (the in-memory network passes Go errors natively,
// TCP cannot), while transport-level failures (ErrUnreachable,
// ErrReplyLost, …) surface as the transport's sentinel errors — the
// distinction the paper's binding and commit protocols depend on.
//
// # Payload encoding
//
// Every payload travels in one codec, the hand-rolled binary one of
// binary.go: payload types implement Wire, and Encode, Decode, Invoke and
// Method accept no other, so a record without a codec fails to compile.
// The payload is [WireMagic, tag, version] followed by the body —
// uvarint-length-prefixed strings and byte fields, plain uvarints for
// counts and sequence numbers, zigzag varints for signed values, the same
// record idiom as internal/storage's WAL codec. Encoding takes one
// allocation, and decoding one for all a short message's strings, whatever
// their number. A request or reply that carries nothing is an Empty.
//
// Records are values: Wire[T] is implemented on T itself, with value
// receivers, and ParseWire returns the record it decodes. Invoke, Method,
// Encode and Decode are generic, and a generic function calls its type
// parameter's methods through a dictionary that escape analysis cannot see
// into, so it must assume a pointer passed to such a call escapes. Were the
// codec on *T, every typed call would put its request and its reply on the
// heap at the caller and again at the handler; on T the record is copied
// into the call and out of it, and stays in its frame. A list decoder
// preallocates no more than its count, and WireReader.Count bounds the
// count by what the rest of the frame holds at the element's least encoded
// size.
//
// Version rules: every peer runs the same build, so Decode rejects every
// version but the type's current one, and a codec revision bumps it (each
// package's wire.go lists the records past version 1). The one record kept
// on stable storage is internal/core's EntryRecord, at version 1. Decoding
// is strict — tag mismatches, truncated fields and trailing bytes are all
// errors, never half-filled structs.
//
// Ownership: every slice Encode returns is freshly allocated and the
// caller's. A reply is encoded once, straight into its frame: Method
// reserves the frame's tag byte in front of the payload it encodes, so the
// server frames a reply by storing one byte, not by copying the body. A
// decoded value never aliases the bytes it was decoded from — a transport
// may reuse its read buffer the moment Decode returns. WireReader.Bytes
// copies each field; WireReader.String copies once per message: the first
// string field read takes one copy of the input from there to its end, and
// the message's strings are sub-strings of that copy. They therefore keep
// one another's bytes alive, which is why the sharing stops at
// maxSharedText: in a message carrying bulk state each string is copied
// alone. WireReader.Addrs carves a message's address lists from one block
// in the same way, each list with cap == len, so appending to one never
// writes into another. The reader itself is pooled, taken and returned inside Decode, so
// a ParseWire must not keep it.
//
// The tag registry, in package blocks so additions never collide:
//
//	0x01–0x1f  internal/core      (group-view database records, name server;
//	                               the batch request, at version 3, runs
//	                               an op naming no action under the
//	                               message's own action)
//	0x20–0x3f  internal/object    (invoke, method-less ones included, + 2PC
//	                               prepare/commit/abort, status; the prepare
//	                               request, at version 3, its reply and the
//	                               end request and reply, at version 2, name
//	                               every object of the action at the server)
//	0x40–0x4f  internal/store     (object store reads, writes, 2PC legs;
//	                               the prepare request, at version 2,
//	                               also carries the one-phase commit)
//	0x50–0x5f  internal/group     (multicast sequence/deliver frames)
//	0x60–0x6f  internal/lease     (read-lease fence records; the Inval,
//	                               at version 2, carries the new version
//	                               and state that move a live lease forward)
//	0x70–0x7f  internal/rpc       (Empty; this package's tests use 0x7d–0x7e)
//	0x80–0x8f  retired: the placement service's lookup, batch
//	                               assignment and replica sync
//	0x90–0x9f  internal/action    (outcome-log lookup)
//
// A retired tag is never reused: a peer still running the old codec must
// see a tag mismatch, not a misparse. Retired so far: 0x52 and 0x53, the
// group's single-message Deliver request and reply; 0x02–0x0d, the
// database's per-operation requests and replies, which its batch replaced;
// 0x01 and 0x40, the
// database's and the store's own empty acknowledgements, which Empty
// replaced; 0x2a and 0x2b, the object server's combined prepare+commit
// request and reply, which the prepare request's one-phase flag replaced;
// 0x20 and 0x21, its activation request and reply, and 0x2c and 0x2d, its
// lease check request and reply, which the method-less invoke replaced
// (the invoke reply reports the version read since version 4, and carries
// its vote's refusal inside the vote since version 5); 0x44 and
// 0x45, the store's SeqOf request and reply, which nothing called; the
// whole 0x80–0x8f block, the placement service's records, which the
// forwards in the group view databases replaced.
//
// # What a call records
//
// Client.Call reads the wall clock once, before the carrier. The call's
// latency is time.Since that start, which reads only the monotonic clock,
// and the instant its breaker records is the start plus that latency. With
// a metrics registry, a call adds one to its service's call count, its
// latency to the service's histogram and, on a transport error, one to its
// transport-error count. A call its breaker refuses records none of these,
// only one breaker.fastfail. With a breaker set, a
// call to a peer whose breaker is closed with no failure in its window
// takes no lock: one atomic load admits it and one more drops its success
// (breaker.go). A failure, a probe, an open breaker or a window that holds
// a failure go through the breaker's mutex, as every call once did.
//
// # Response framing
//
// The response framing is a hand-rolled length-prefixed record: a success frame is one tag byte followed
// by the handler's already-encoded body (wrapped without re-encoding,
// unwrapped zero-copy on the client), an error frame is the tag plus
// length-prefixed code and message strings.
//
// # Transports
//
// Two carriers implement transport.Network beneath this package. Mem
// delivers in-process with injectable faults. TCPMux multiplexes every
// call between a node pair onto one connection: request IDs pair
// pipelined requests with their replies and a per-connection reader
// demultiplexes. An abandoned call (context cancelled, deadline expired)
// does NOT poison a mux stream, because the framing is per-frame rather
// than per-call; a torn or undecodable frame does. Mux request frames also
// carry the caller's remaining deadline, so the server bounds each
// handler's context itself — the caller-side unwind that the in-process
// carrier gets for free. See internal/transport/mux.go.
package rpc
