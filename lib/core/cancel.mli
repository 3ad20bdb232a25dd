(** Cooperative cancellation tokens for long-running kernel work.

    A pathological job (huge trace, deep [max_level]) must not pin a
    worker domain forever. A token carries an absolute wall-clock
    deadline in an atomic cell; the kernels poll it at cheap boundaries
    — every {!poll_mask}+1 references inside the fused kernel loops, before
    every shard attempt in [Shard_exec], and at each level of the BCAT
    walk — and expiry raises a typed
    {!Dse_error.Deadline_exceeded}[ {elapsed; limit}] (CLI exit 7) from
    whichever domain notices first.

    A token may also carry a {!Heartbeat.t}: every poll then doubles as
    a liveness beat, which is how the [dse serve] watchdog distinguishes
    a slow-but-alive worker (still polling, still beating) from a wedged
    one (stopped polling, heartbeat age grows past [--hang-timeout]).

    Tokens are shared freely across domains: {!cancel} is an atomic
    store, {!check} an atomic load plus a clock read (plus one atomic
    store when a heartbeat is attached). {!none} never expires and makes
    the polls nearly free, so every kernel entry point takes [?cancel]
    with it as the default. *)

type t

(** The token that never expires ({!check} never raises) and carries no
    heartbeat. *)
val none : t

(** [after seconds] expires [seconds] from now. [seconds] must be
    positive and finite; raises [Invalid_argument] otherwise. *)
val after : float -> t

(** [cancellable ()] never expires on its own but can be {!cancel}ed —
    the token for jobs without a deadline that the watchdog must still
    be able to reclaim (the abandoned worker's kernel aborts at its next
    poll instead of burning a core to completion). *)
val cancellable : unit -> t

(** [with_heartbeat hb t] is [t] with every {!check} also beating [hb].
    The deadline cell is shared with [t], so cancelling either token
    cancels both. *)
val with_heartbeat : Heartbeat.t -> t -> t

(** [cancel t] expires the token immediately (no-op on {!none}); every
    subsequent {!check} in any domain raises. *)
val cancel : t -> unit

(** [expired t] is [true] once the deadline has passed or {!cancel} ran. *)
val expired : t -> bool

(** [check t] beats the attached heartbeat (if any), then raises
    {!Dse_error.Error} ([Deadline_exceeded] with the elapsed time since
    the token was created and the configured limit) iff the token has
    expired. *)
val check : t -> unit

(** [limit t] echoes the configured limit in seconds ([None] for
    {!none} and {!cancellable} tokens). *)
val limit : t -> float option

(** Kernels poll on positions [p] with [p land poll_mask = 0]: every
    1024 references — frequent enough that even conflict-heavy traces
    notice expiry within milliseconds, cheap enough to vanish against
    the per-reference work. *)
val poll_mask : int
