(** The request broker: admission control, deadline propagation, load
    shedding and poison-app quarantine over a set of
    {!Homeguard_store.Home}s. A fleet shard is one broker plus the
    homes its supervisor assigned it; every reply and queued job
    carries the home id it belongs to. *)

module Detector = Homeguard_detector.Detector
module Install_flow = Homeguard_frontend.Install_flow
module Home = Homeguard_store.Home

type config = {
  max_queue : int;  (** per-home admission bound (queued + running) *)
  deadline_ms : float option;  (** request deadline *)
  quarantine_after : int;  (** consecutive failures before quarantine *)
  clock : Deadline.clock;
  jobs : int;  (** audit parallelism *)
}
(** The global bounds are fixed in {!Admission} (16 in flight, 2 slots
    reserved for interactive work, a 50 ms service estimate); background
    work sheds at 0.75 occupancy. *)

val default_config : config
(** max_queue 4, no deadline, quarantine after 3, wall clock, 1 job. *)

type t

val create : ?config:config -> unit -> t
(** An empty broker; populate it with {!add_home}. *)

val add_home : t -> id:string -> Home.t -> unit
(** Register a home under [id]. Each home gets its own failure-streak
    counter; which apps are quarantined is read from the home itself,
    so a recovered quarantine holds from the first request. Per-home
    admission bounds key on [id].
    @raise Invalid_argument on a duplicate id. *)

val remove_home : t -> string -> Home.t option
(** Unregister and return a home (for handing to another shard).
    Queued jobs for it release their tickets and are dropped; the
    caller owns closing or re-homing the returned value. [None] when
    the id is unknown. *)

val home : t -> string -> Home.t
(** @raise Invalid_argument on an unknown id. *)

val home_opt : t -> string -> Home.t option
val home_ids : t -> string list
val homes : t -> (string * Home.t) list

(** {2 Interactive installs} *)

type install_reply =
  | Proposed of {
      report : Install_flow.report;
      degraded : bool;
          (** the deadline cut the audit short: the threat list is a
              lower bound, never a clean bill *)
      elapsed_ms : float;
    }
  | Busy of { retry_after_ms : int }
      (** backpressure; the hint scales with the queue depth ahead *)
  | Quarantined_app of { app : string; reason : string }
      (** refused before extraction: the app is quarantined *)
  | Install_failed of {
      app : string;
      error : string;
      quarantined : bool;  (** this failure tripped the threshold *)
    }

val install : t -> home:string -> name:string -> source:string -> unit -> install_reply
(** Admit (Interactive) against [home]'s bound, extract, audit against
    that home under the remaining deadline (budget via
    {!Deadline.budget_spec}, escalation off, cooperative cancellation).
    Extraction/audit crashes count toward that home's quarantine
    counter; a successful proposal leaves the report pending in the
    home for [keep]/[reject].
    @raise Invalid_argument on an unknown home id. *)

(** {2 Background re-audits} *)

val submit_audit : t -> home:string -> unit -> (int, int) result
(** Enqueue a full re-audit of [home]; the job holds its admission
    ticket from acceptance, so queued work counts against the bounds.
    [Error retry_after_ms] is the backpressure reply.
    @raise Invalid_argument on an unknown home id. *)

type audit_outcome =
  | Audited of {
      home : string;
      id : int;
      result : Detector.audit_result;
      degraded : bool;
      elapsed_ms : float;
    }
  | Shed_job of { home : string; id : int; reason : Shed.reason }

val drain : t -> audit_outcome list
(** Run or shed every queued job in submission order: expired deadlines
    and over-threshold occupancy shed (structured, never a silent drop),
    the rest run with cooperative cancellation. Every outcome names its
    home. *)

(** {2 Quarantine management} *)

val quarantined : t -> home:string -> (string * string) list
(** The home's quarantined apps, [(app, reason)] in quarantine order. *)

val clear_quarantine : t -> home:string -> string -> bool
(** Lift the app's quarantine in the home (journaled) and start its
    failure streak over; [false] when the home had not quarantined it. *)

val status : t -> string
(** One-line homes/occupancy/queue/quarantine summary for the serve
    loop. *)
