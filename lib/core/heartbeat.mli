(** Worker liveness heartbeats.

    A heartbeat is an atomic wall-clock timestamp shared between the
    domain doing kernel work and the watchdog observing it. The worker
    side stamps it implicitly: attaching a heartbeat to a {!Cancel}
    token ({!Cancel.with_heartbeat}) makes every cancellation poll —
    every {!Cancel.poll_mask}+1 references in the fused kernel loops,
    before each shard attempt, per BCAT-walk level — also refresh the
    timestamp. The watchdog side reads {!age} from another domain and
    declares a worker stalled once the age exceeds the hang timeout:
    a wedged loop stops polling, so it stops beating.

    Both sides are a single atomic load or store; no locks, safe from
    any domain. *)

type t

(** [create ()] is a heartbeat stamped "now" — a job is live the moment
    it is picked up, so the hang clock starts at job start, not at the
    first kernel poll. *)
val create : unit -> t

(** [beat t] re-stamps the heartbeat to the current time. *)
val beat : t -> unit

(** [last t] is the wall-clock time of the most recent beat. *)
val last : t -> float

(** [age ?now t] is the seconds since the last beat ([now] defaults to
    the current time; pass it when scanning many heartbeats against one
    clock read). *)
val age : ?now:float -> t -> float
