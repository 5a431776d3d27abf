(** Messaging transport between the SmartThings cloud and the HomeGuard
    phone app (paper §VII-B).

    The real deployment uses SMS ([sendSmsMessage]) or HTTP relayed
    through Firebase Cloud Messaging. In this reproduction the transport
    is a latency model calibrated to the paper's measurements (§VIII-C):
    cloud-side processing ≈ 27 ms, SMS delivery ≈ 3120 ms, HTTP/FCM
    delivery ≈ 1058 ms (averages over 100 trials). Jitter is produced by
    a seeded LCG so experiments are reproducible. *)

type transport = Sms | Http

(* Latency model parameters (milliseconds). *)
let cloud_processing_mean = 27.0
let sms_delivery_mean = 3120.0
let http_delivery_mean = 1058.0

type t = {
  mutable rng : int;
  mutable lost : int;
  loss_per_thousand : int;  (** message-loss injection for failure tests *)
}

let create ?(seed = 7) ?(loss_per_thousand = 0) () =
  { rng = (seed * 48_271) land 0x3FFFFFFF; lost = 0; loss_per_thousand }

let next t =
  t.rng <- ((t.rng * 1_103_515_245) + 12_345) land 0x3FFFFFFF;
  t.rng

(* Positive noise with mean ~= spread/2 (sum of two uniforms, roughly
   triangular — enough to give realistic-looking variance). *)
let noise t spread =
  let a = float_of_int (next t mod spread) and b = float_of_int (next t mod spread) in
  (a +. b) /. 2.0

(** Latency of one delivery over [transport], in milliseconds,
    including cloud-side processing. *)
let sample_latency t transport =
  let processing = cloud_processing_mean -. 8.0 +. noise t 16 in
  let delivery =
    match transport with
    | Sms -> sms_delivery_mean -. 600.0 +. noise t 1200
    | Http -> http_delivery_mean -. 250.0 +. noise t 500
  in
  processing +. delivery

(** Deliver a configuration URI; returns the observed latency, or [None]
    if the message was lost (when loss injection is enabled). *)
let send t transport _uri =
  if t.loss_per_thousand > 0 && next t mod 1000 < t.loss_per_thousand then begin
    t.lost <- t.lost + 1;
    None
  end
  else Some (sample_latency t transport)

(** Mean latency over [trials] deliveries (the §VIII-C experiment). *)
let measure_mean t transport ~trials =
  let total = ref 0.0 and count = ref 0 in
  for _ = 1 to trials do
    match send t transport "http://my.com/appname:probe/" with
    | Some l ->
      total := !total +. l;
      incr count
    | None -> ()
  done;
  if !count = 0 then 0.0 else !total /. float_of_int !count

let lost_count t = t.lost
