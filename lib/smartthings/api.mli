(** The SmartThings SmartApp API surface relevant to rule extraction:
    Table VI's sensitive sinks and the scheduling APIs. *)

type kind =
  | Http
  | Delayed_run of [ `Seconds_arg ]
  | Periodic_run of int  (** period in seconds *)
  | Run_once
  | Daily_schedule
  | Hub_command
  | Sms
  | Push_notification
  | Set_location_mode

val sink_apis : (string * kind) list
val kind_of : string -> kind option
