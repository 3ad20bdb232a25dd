(** The byte-level encoding shared by the three binary formats: the
    [DSEB] trace file ({!Trace_io}), the [DSRV] protocol frame
    ([Protocol]) and the [DSEW] WAL / replica record ([Wal]). All are
    [magic | version | ... | CRC-32 LE footer] and carry non-negative
    LEB128 varints of at most 63 value bits; the first two carry trace
    references as one varint per record. Readers raise {!Malformed} or
    {!Truncated}, which each format maps to its own error type. *)

(** [Malformed (offset, reason)]: the bytes at absolute [offset] are
    not valid. *)
exception Malformed of int * string

(** [Truncated offset]: the input ended at [offset] mid-value. *)
exception Truncated of int

(** {1 Writing} *)

(** Raises [Invalid_argument] on a negative value. *)
val add_varint : Buffer.t -> int -> unit

(** 8 bytes, little-endian. *)
val add_i64 : Buffer.t -> int64 -> unit

(** The IEEE-754 bits as {!add_i64}, so floats round-trip exactly. *)
val add_f64 : Buffer.t -> float -> unit

(** [add_crc buf crc] appends the footer: the finalized running CRC-32
    [crc], 4 bytes little-endian. *)
val add_crc : Buffer.t -> int -> unit

(** [frame ~header payload] is [header | varint length | payload |
    footer over every preceding byte]: a [DSRV] frame (header: magic,
    version, tag) or a [DSEW] record (magic, version). *)
val frame : header:string -> string -> string

(** {1 Trace records} *)

(** [2{^60} - 1], the largest address a record can carry. *)
val max_addr : int

(** [record ~addr ~kind] is [(addr lsl 2) lor tag], tags 0 = fetch, 1 =
    read, 2 = write. Raises [Invalid_argument] if [addr] is outside
    [0 .. max_addr], where the shift would drop its top bits. *)
val record : addr:int -> kind:Trace.kind -> int

(** [false] for tag 3, which no kind uses. *)
val record_valid : int -> bool

val record_addr : int -> int

(** The kind of a valid record. *)
val record_kind : int -> Trace.kind

(** The reason a tag-3 record is refused. *)
val bad_record : string

(** {1 Reading} *)

(** A read position over a string or a byte source, with absolute
    offsets, keeping the CRC-32 of every byte consumed since it was
    made (for {!check_crc}). *)
type cursor

(** [of_string ?pos s] reads [s] from [pos] (default 0) to its end. *)
val of_string : ?pos:int -> string -> cursor

(** [reader ?window fill] reads through a [window]-byte buffer (default
    65536) refilled by [fill buf off len] (bytes stored, 0 at the end).
    With a window of 1 the cursor never reads past what it is asked
    for. *)
val reader : ?window:int -> (Bytes.t -> int -> int -> int) -> cursor

val offset : cursor -> int

(** Bytes readable without the source: what is left of a string. *)
val available : cursor -> int

(** No byte left (it may read the source to find out). *)
val at_end : cursor -> bool

val byte : cursor -> int

(** {!Malformed} past 63 value bits. *)
val varint : cursor -> int

(** A {!record}; {!Malformed} with {!bad_record} for tag 3. *)
val read_record : cursor -> int

(** [read_trace c ~count t] appends [count] records ({!read_record})
    to [t]. *)
val read_trace : cursor -> count:int -> Trace.t -> unit

val i64 : cursor -> int64

val f64 : cursor -> float

(** The next [n] bytes; beyond the window they are read from the source
    straight into the result. *)
val take : cursor -> int -> string

(** {!Malformed} "bad magic" at the first byte that differs. *)
val expect_magic : cursor -> string -> unit

(** [expect_version c ~what v]: {!Malformed} "unsupported [what] version
    [n]" unless the next byte is [v]. *)
val expect_version : cursor -> what:string -> int -> unit

(** Reads the footer; {!Malformed} unless it is the CRC of every byte
    consumed before it. *)
val check_crc : cursor -> unit

(** The largest payload a reader accepts, 256 MiB. *)
val max_payload : int

(** [frame_payload c] reads what follows a {!frame}'s header — length,
    payload, footer — refusing a length over {!max_payload} before
    allocating. *)
val frame_payload : cursor -> string

(** {1 Shared payload layouts} *)

(** A result-cache key ([Result_cache.key]). On the wire: the
    fingerprint as 8 raw bytes (a varint would inflate a 64-bit hash),
    then [method_tag], [domains] and [max_level + 1] (so "unbounded",
    -1, stays non-negative) as varints — in replication verbs and at the
    head of every WAL record. *)
type cache_key = { fingerprint : int64; method_tag : int; domains : int; max_level : int }

val add_cache_key : Buffer.t -> cache_key -> unit

val cache_key : cursor -> cache_key

(** [n], [n_unique], [address_bits], [max_misses] as varints — in table
    replies and WAL records. *)
val add_stats : Buffer.t -> Stats.t -> unit

val stats : cursor -> Stats.t
