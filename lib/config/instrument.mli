(** Source-to-source instrumentation inserting the configuration
    collection of paper Listing 3. *)

val instrument_source : ?transport:[ `Sms | `Http ] -> app_name:string -> string -> string
(** Adds the [patchedphone] input, appends the collection preamble to
    [updated] (creating it if absent) and the [collectConfigInfo]
    helper. *)

val collected_uri :
  app_name:string ->
  device_bindings:(string * string) list ->
  value_bindings:(string * string) list ->
  string
(** What the instrumented [updated] produces for concrete bindings. *)
