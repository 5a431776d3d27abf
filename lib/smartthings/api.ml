(** SmartThings SmartApp API surface relevant to rule extraction.

    Mirrors the paper's Table VI (the 21 sensitive APIs considered as
    sinks) and §V-B's API modeling: scheduling APIs attach [when]/[period]
    information to downstream sinks; messaging and HTTP APIs are sinks in
    their own right. *)

(** Classification of a platform API call site. *)
type kind =
  | Http  (** httpGet/httpPost/... — data exfiltration or web hooks *)
  | Delayed_run of [ `Seconds_arg ]  (** [runIn(delay, method)] *)
  | Periodic_run of int  (** [runEveryNMinutes(method)] — period in seconds *)
  | Run_once  (** [runOnce(time, method)] *)
  | Daily_schedule  (** [schedule(time, method)] *)
  | Hub_command  (** [sendHubCommand(...)] *)
  | Sms  (** [sendSms]/[sendSmsMessage] *)
  | Push_notification  (** [sendPush]/[sendNotification*] — not in Table VI *)
  | Set_location_mode  (** [setLocationMode(mode)] — a platform actuator *)

let sink_apis : (string * kind) list =
  [
    ("httpDelete", Http);
    ("httpGet", Http);
    ("httpHead", Http);
    ("httpPost", Http);
    ("httpPostJson", Http);
    ("httpPut", Http);
    ("httpPutJson", Http);
    ("runIn", Delayed_run `Seconds_arg);
    ("runEvery1Minute", Periodic_run 60);
    ("runEvery5Minutes", Periodic_run 300);
    ("runEvery10Minutes", Periodic_run 600);
    ("runEvery15Minutes", Periodic_run 900);
    ("runEvery30Minutes", Periodic_run 1800);
    ("runEvery1Hour", Periodic_run 3600);
    ("runEvery3Hours", Periodic_run 10800);
    ("runOnce", Run_once);
    ("schedule", Daily_schedule);
    ("runDaily", Daily_schedule);
    (* undocumented; added after the Camera Power Scheduler case, §VIII-B *)
    ("sendHubCommand", Hub_command);
    ("sendSms", Sms);
    ("sendSmsMessage", Sms);
    ("setLocationMode", Set_location_mode);
    ("sendPush", Push_notification);
    ("sendPushMessage", Push_notification);
    ("sendNotification", Push_notification);
    ("sendNotificationEvent", Push_notification);
    ("sendNotificationToContacts", Push_notification);
  ]

let kind_of name = List.assoc_opt name sink_apis
