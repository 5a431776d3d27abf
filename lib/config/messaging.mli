(** SMS / HTTP(FCM) transport between the cloud and the HomeGuard phone
    app, as a latency model calibrated to the paper's §VIII-C
    measurements, with optional loss injection. *)

type transport = Sms | Http

val cloud_processing_mean : float

type t

val create : ?seed:int -> ?loss_per_thousand:int -> unit -> t

val send : t -> transport -> string -> float option
(** Deliver a URI; [None] when loss injection drops it. *)

val send_with_retry :
  ?max_attempts:int ->
  ?backoff_ms:float ->
  ?max_backoff_ms:float ->
  ?deadline_ms:float ->
  t ->
  transport ->
  string ->
  (float * int) option
(** Deliver with up to [max_attempts] (default 4) sends under capped
    decorrelated-jitter backoff: each simulated wait is drawn uniformly
    from [[backoff_ms, min (max_backoff_ms, prev * 3)]] (defaults 250 ms
    and 8 s), so retrying fleets desynchronize while a given [?seed]
    still replays exactly. [?deadline_ms] caps the total backoff spend —
    a retry whose wait would push past the caller's deadline is
    abandoned ([None]) instead of slept, so retries and backoff can
    never outlive the request that asked for them. Returns the total
    elapsed time (backoff included) and the attempts used, or [None]
    when every attempt was lost or the deadline cut retrying short. *)

val measure_mean : t -> transport -> trials:int -> float
val lost_count : t -> int
