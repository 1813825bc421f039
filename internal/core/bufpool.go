package core

import "sync"

// bufPool recycles the scratch buffers of the forward hot path (gate
// frames, decrypted plaintexts, response assembly, result pages). Buffers
// are pooled as *[]byte so Get/Put never allocate at steady state, and grow
// to their working size once.
//
// Ownership rule: a buffer obtained with getBuf is owned by the caller
// until putBuf; slices derived from it (decoded queries, unpadded
// plaintexts) die with it and must be copied before the put. Never put a
// buffer whose contents were returned to a caller.
//
// Result pages are the one kind of buffer whose ownership moves. On the
// client, forward copies each response's validated page out of the pair's
// scratch into a pooled buffer (forwardResponse.pageBuf) and hands it to
// its caller: forwardWithRetry passes it up, and Search decodes the real
// page once every forward has returned, then puts back every page buffer,
// the fakes' unread. On the relay, the engine ocall encodes its page into a
// pooled buffer that crosses the call gate as a plain slice (detachBuf);
// the forward ecall puts it back (putDetached) once the page is spliced
// into the response.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// spareHeaders keeps the *[]byte wrappers of buffers detached by detachBuf,
// so putDetached re-wraps a buffer without allocating.
var spareHeaders = sync.Pool{
	New: func() any { return new([]byte) },
}

func getBuf() *[]byte {
	return bufPool.Get().(*[]byte)
}

func putBuf(b *[]byte) {
	bufPool.Put(b)
}

// detachBuf returns the contents of pooled buffer b as a plain slice, for a
// buffer that must cross an interface typed []byte (the call gate). The
// receiver owns the slice and returns it with putDetached.
func detachBuf(b *[]byte) []byte {
	s := *b
	*b = nil
	spareHeaders.Put(b)
	return s
}

// putDetached returns a buffer unwrapped by detachBuf to the pool.
func putDetached(s []byte) {
	b := spareHeaders.Get().(*[]byte)
	*b = s[:0]
	bufPool.Put(b)
}
