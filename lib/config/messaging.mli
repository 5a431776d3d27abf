(** SMS / HTTP(FCM) transport between the cloud and the HomeGuard phone
    app, as a latency model calibrated to the paper's §VIII-C
    measurements, with optional loss injection. *)

type transport = Sms | Http

val cloud_processing_mean : float

type t

val create : ?seed:int -> ?loss_per_thousand:int -> unit -> t

val send : t -> transport -> string -> float option
(** Deliver a URI; [None] when loss injection drops it. *)

val measure_mean : t -> transport -> trials:int -> float
val lost_count : t -> int
