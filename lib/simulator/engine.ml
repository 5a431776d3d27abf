(** The discrete-event smart-home simulation engine.

    Substitutes for the paper's SmartThings testbed (§VIII-A/B): devices
    hold attribute state, the environment evolves under actuator
    influences, rules compiled from extracted {!Homeguard_rules.Rule}
    values subscribe to events and issue (possibly delayed) commands, and
    everything lands in a {!Trace}. Same-time command interleavings are
    perturbed by a seeded jitter so actuator races exhibit their
    nondeterministic outcomes across seeds. *)

module Rule = Homeguard_rules.Rule
module Term = Homeguard_solver.Term
module Formula = Homeguard_solver.Formula
module Device = Homeguard_st.Device
module Capability = Homeguard_st.Capability
module Location = Homeguard_st.Location
module Env = Homeguard_st.Env_feature
module Effects = Homeguard_detector.Effects
module Mediator = Homeguard_handling.Mediator

type binding = B_device of Device.t | B_int of int

type installed_app = { app : Rule.smartapp; bindings : (string * binding) list }

type device_state = {
  device : Device.t;
  mutable attrs : (string * string) list;  (** attribute -> rendered value *)
}

(** Causal provenance: the (app name, rule id) hops whose executions led
    to an event or command, oldest first, capped so pathological loops
    cannot grow it without bound. *)
type provenance = (string * string) list

type pending =
  | Deliver of
      { source : string option; attribute : string; value : string; prov : provenance }
      (** [source = None] means a location event *)
  | Execute of
      { iapp : installed_app; rule : Rule.t; action : Rule.action; prov : provenance;
        deferrals : int }
  | Sample  (** periodic environment sampling *)

type t = {
  devices : (string, device_state) Hashtbl.t;  (** keyed by device id *)
  env : Env_model.t;
  location : Location.t;
  queue : pending Event_queue.t;
  mutable now : int;
  mutable trace_rev : Trace.entry list;
  mutable apps : installed_app list;
  mutable rng : int;
  sample_interval_ms : int;
  mediator : Mediator.t option;
      (** reference monitor consulted before each Execute dispatch *)
  feature_prov : (Env.t, provenance) Hashtbl.t;
      (** provenance of the rule whose actuation last drove each
          environment feature, so env-mediated trigger chains survive
          the physical hop *)
  influence_feats : (string, Env.t list) Hashtbl.t;
      (** device id -> features it last influenced (for clear paths) *)
  mutable sample_scheduled : bool;  (** the periodic Sample chain is live *)
}

let create ?(seed = 1) ?(sample_interval_ms = 30_000) ?mediator () =
  {
    devices = Hashtbl.create 16;
    env = Env_model.create ();
    location = Location.create ();
    queue = Event_queue.create ();
    now = 0;
    trace_rev = [];
    apps = [];
    rng = (seed * 2_654_435_761) land 0x3FFFFFFF;
    sample_interval_ms;
    mediator;
    feature_prov = Hashtbl.create 8;
    influence_feats = Hashtbl.create 8;
    sample_scheduled = false;
  }

(* Keep the most recent hops: old hops stop mattering once a chain is
   this deep, and the cap keeps tight loops from accumulating state. *)
let max_prov_hops = 32

let cap_prov prov =
  let rec drop k l = if k <= 0 then l else match l with [] -> [] | _ :: tl -> drop (k - 1) tl in
  let n = List.length prov in
  if n <= max_prov_hops then prov else drop (n - max_prov_hops) prov

let next_random t bound =
  t.rng <- ((t.rng * 1_103_515_245) + 12_345) land 0x3FFFFFFF;
  if bound <= 0 then 0 else t.rng mod bound

let log t entry = t.trace_rev <- entry :: t.trace_rev

let trace t = List.rev t.trace_rev
let env t = t.env

(* -- devices --------------------------------------------------------------- *)

(* Devices start in their quiescent state. *)
let preferred_defaults =
  [ "off"; "closed"; "locked"; "inactive"; "not present"; "clear"; "dry"; "stopped"; "idle"; "unmuted"; "auto" ]

let default_attr_value = function
  | Capability.Enum values -> (
    match List.find_opt (fun v -> List.mem v preferred_defaults) values with
    | Some v -> v
    | None -> ( match values with v :: _ -> v | [] -> ""))
  | Capability.Numeric (lo, hi) -> string_of_int ((lo + hi) / 2)

(** Register a device; attributes start at capability defaults. *)
let add_device t device =
  let attrs =
    List.concat_map
      (fun cap_name ->
        match Capability.find cap_name with
        | Some cap ->
          List.map
            (fun a -> (a.Capability.attr_name, default_attr_value a.Capability.domain))
            cap.Capability.attributes
        | None -> [])
      device.Device.capabilities
  in
  Hashtbl.replace t.devices device.Device.id { device; attrs }

let device_state t id = Hashtbl.find_opt t.devices id

let set_attribute t ?(prov = []) id attribute value =
  match device_state t id with
  | None -> ()
  | Some ds ->
    let current = List.assoc_opt attribute ds.attrs in
    if current <> Some value then begin
      ds.attrs <- (attribute, value) :: List.remove_assoc attribute ds.attrs;
      log t (Trace.Attr_change { at = t.now; device = ds.device.Device.label; attribute; value });
      Event_queue.push t.queue (t.now + 10)
        (Deliver { source = Some id; attribute; value; prov })
    end

(** Externally inject a sensor reading / state change (test stimulus).
    External stimuli carry no rule provenance. *)
let stimulate t id attribute value = set_attribute t id attribute value

(* Switch the location mode on behalf of the rule hops [prov]. *)
let switch_mode t prov mode =
  if t.location.Location.current_mode <> mode then begin
    Location.set_mode t.location mode;
    log t (Trace.Mode_change { at = t.now; mode });
    Event_queue.push t.queue (t.now + 10)
      (Deliver { source = None; attribute = "mode"; value = mode; prov })
  end

let set_mode t mode = switch_mode t [] mode

(* -- app installation ------------------------------------------------------ *)

let install t app bindings =
  List.iter (fun (_, b) -> match b with B_device d -> if device_state t d.Device.id = None then add_device t d | _ -> ()) bindings;
  let iapp = { app; bindings } in
  t.apps <- t.apps @ [ iapp ];
  (* prime scheduled rules *)
  List.iter
    (fun (rule : Rule.t) ->
      match rule.Rule.trigger with
      | Rule.Scheduled { at_minutes; period_seconds } ->
        let first =
          match (at_minutes, period_seconds) with
          | Some m, _ -> m * 60_000
          | None, Some p -> p * 1000
          | None, None -> 60_000
        in
        List.iter
          (fun action ->
            Event_queue.push t.queue first
              (Execute { iapp; rule; action; prov = []; deferrals = 0 }))
          rule.Rule.actions
      | Rule.Event _ -> ())
    app.Rule.rules

let device_of_var iapp var =
  match List.assoc_opt var iapp.bindings with
  | Some (B_device d) -> Some d
  | _ -> None

(* -- concrete formula evaluation ------------------------------------------ *)

(* Value of a qualified variable in the current home state; [data] maps
   path-local names to their defining terms. *)
let rec var_value t iapp data var =
  match List.assoc_opt var data with
  | Some term -> term_value t iapp data term
  | None -> (
    if var = "location.mode" then Some (`S t.location.Location.current_mode)
    else if var = "time.now" then Some (`I (t.now / 60_000 mod 1440))
    else
      match String.rindex_opt var '.' with
      | Some i -> (
        let base = String.sub var 0 i in
        let attr = String.sub var (i + 1) (String.length var - i - 1) in
        match device_of_var iapp base with
        | Some d -> (
          match device_state t d.Device.id with
          | Some ds -> (
            match List.assoc_opt attr ds.attrs with
            | Some v -> (
              match int_of_string_opt v with Some n -> Some (`I n) | None -> Some (`S v))
            | None -> None)
          | None -> None)
        | None -> None)
      | None -> (
        match List.assoc_opt var iapp.bindings with
        | Some (B_int n) -> Some (`I n)
        | Some (B_device _) | None -> None))

and term_value t iapp data = function
  | Term.Int n -> Some (`I n)
  | Term.Str s -> Some (`S s)
  | Term.Var v -> var_value t iapp data v
  | Term.Add (a, b) -> arith t iapp data ( + ) a b
  | Term.Sub (a, b) -> arith t iapp data ( - ) a b
  | Term.Mul (a, b) -> arith t iapp data ( * ) a b
  | Term.Neg a -> (
    match term_value t iapp data a with Some (`I n) -> Some (`I (-n)) | _ -> None)

and arith t iapp data op a b =
  match (term_value t iapp data a, term_value t iapp data b) with
  | Some (`I x), Some (`I y) -> Some (`I (op x y))
  | _ -> None

(* Optimistic evaluation: atoms over unresolvable data (opaque symbols)
   hold, so controlled scenarios drive the rules they intend to. *)
let rec holds t iapp data = function
  | Formula.True -> true
  | Formula.False -> false
  | Formula.And fs -> List.for_all (holds t iapp data) fs
  | Formula.Or fs -> List.exists (holds t iapp data) fs
  | Formula.Not f -> not (holds t iapp data f)
  | Formula.Atom (cmp, a, b) -> (
    match (term_value t iapp data a, term_value t iapp data b) with
    | Some (`I x), Some (`I y) -> (
      match cmp with
      | Formula.Eq -> x = y
      | Formula.Neq -> x <> y
      | Formula.Lt -> x < y
      | Formula.Le -> x <= y
      | Formula.Gt -> x > y
      | Formula.Ge -> x >= y)
    | Some (`S x), Some (`S y) -> (
      match cmp with
      | Formula.Eq -> x = y
      | Formula.Neq -> x <> y
      | Formula.Lt | Formula.Le | Formula.Gt | Formula.Ge -> false)
    | Some (`I _), Some (`S _) | Some (`S _), Some (`I _) -> cmp = Formula.Neq
    | _ -> true)

(* -- rule firing ------------------------------------------------------------ *)

let trigger_matches t iapp (rule : Rule.t) ~source ~attribute ~value =
  match rule.Rule.trigger with
  | Rule.Scheduled _ -> false
  | Rule.Event { subject; attribute = sub_attr; constraint_ } ->
    sub_attr = attribute
    && (match (subject, source) with
       | Rule.Device var, Some id -> (
         match device_of_var iapp var with Some d -> d.Device.id = id | None -> false)
       | Rule.Location, None -> true
       | _ -> false)
    &&
    (* trigger constraint over the event value *)
    let subject_var =
      match subject with
      | Rule.Device var -> var ^ "." ^ attribute
      | Rule.Location -> "location." ^ attribute
      | Rule.App_touch -> "app.touch"
    in
    let data =
      (subject_var, match int_of_string_opt value with
       | Some n -> Term.Int n
       | None -> Term.Str value)
      :: rule.Rule.condition.Rule.data
    in
    holds t iapp data constraint_

(* A command reaches its device 40 ms after the rule fires, plus up to
   150 ms of seeded jitter. *)
let fire_rule t prov iapp (rule : Rule.t) =
  List.iter
    (fun (action : Rule.action) ->
      let delay = (action.Rule.when_ * 1000) + 40 + next_random t 150 in
      Event_queue.push t.queue (t.now + delay)
        (Execute { iapp; rule; action; prov; deferrals = 0 }))
    rule.Rule.actions

let deliver t prov ~source ~attribute ~value =
  log t
    (Trace.Event_fired
       {
         at = t.now;
         source =
           (match source with
           | Some id -> (
             match device_state t id with
             | Some ds -> ds.device.Device.label
             | None -> id)
           | None -> "location");
         attribute;
         value;
       });
  List.iter
    (fun iapp ->
      List.iter
        (fun rule ->
          if trigger_matches t iapp rule ~source ~attribute ~value then
            if holds t iapp rule.Rule.condition.Rule.data rule.Rule.condition.Rule.predicate
            then fire_rule t prov iapp rule)
        iapp.app.Rule.rules)
    t.apps

(* Apply an actuator command: update the written attribute, adjust
   environment influences per the goal-effect map. [prov] is the causal
   chain that led here; the write provenance appends this rule. *)
let execute t prov iapp (rule : Rule.t) (action : Rule.action) =
  let wprov = cap_prov (prov @ [ (iapp.app.Rule.name, rule.Rule.rule_id) ]) in
  match action.Rule.target with
  | Rule.Act_location_mode -> (
    match action.Rule.params with
    | Term.Str mode :: _ ->
      log t
        (Trace.Command
           {
             at = t.now;
             app = iapp.app.Rule.name;
             rule = rule.Rule.rule_id;
             device = "location";
             command = "setLocationMode(" ^ mode ^ ")";
           });
      switch_mode t wprov mode
    | _ -> ())
  | Rule.Act_messaging | Rule.Act_http | Rule.Act_hub ->
    log t
      (Trace.Command
         {
           at = t.now;
           app = iapp.app.Rule.name;
           rule = rule.Rule.rule_id;
           device = Rule.target_to_string action.Rule.target;
           command = action.Rule.command;
         })
  | Rule.Act_device var -> (
    match device_of_var iapp var with
    | None -> ()
    | Some d ->
      log t
        (Trace.Command
           {
             at = t.now;
             app = iapp.app.Rule.name;
             rule = rule.Rule.rule_id;
             device = d.Device.label;
             command = action.Rule.command;
           });
      (* attribute write via the capability registry *)
      List.iter
        (fun (w : Homeguard_detector.Channels.attr_write) ->
          match w.Homeguard_detector.Channels.w_value with
          | Some (Term.Str v) ->
            set_attribute t ~prov:wprov d.Device.id w.Homeguard_detector.Channels.w_attr v
          | Some (Term.Int n) ->
            set_attribute t ~prov:wprov d.Device.id w.Homeguard_detector.Channels.w_attr
              (string_of_int n)
          | Some term -> (
            match term_value t iapp rule.Rule.condition.Rule.data term with
            | Some (`I n) ->
              set_attribute t ~prov:wprov d.Device.id w.Homeguard_detector.Channels.w_attr
                (string_of_int n)
            | Some (`S s) ->
              set_attribute t ~prov:wprov d.Device.id w.Homeguard_detector.Channels.w_attr s
            | None -> ())
          | None -> ())
        (Homeguard_detector.Channels.attribute_writes iapp.app action);
      (* environment influence; the driving rule's provenance sticks to
         the affected features so chains survive the physical hop *)
      let effects = Effects.effects_of_action iapp.app action in
      let deactivating = List.mem action.Rule.command [ "off"; "close"; "stop"; "pause" ] in
      if deactivating then begin
        Env_model.clear_influences t.env d.Device.id;
        match Hashtbl.find_opt t.influence_feats d.Device.id with
        | Some feats -> List.iter (fun f -> Hashtbl.replace t.feature_prov f wprov) feats
        | None -> ()
      end
      else if effects <> [] then begin
        let rates = Env_model.rates_of_effects effects in
        Env_model.set_influences t.env d.Device.id rates;
        let feats = List.map fst rates in
        Hashtbl.replace t.influence_feats d.Device.id feats;
        List.iter (fun f -> Hashtbl.replace t.feature_prov f wprov) feats
      end)

(* Sample: step the environment and refresh sensor readings. A sampled
   change inherits the provenance of the rule that last drove the
   feature, so env-mediated trigger chains stay attributable. *)
let sample t =
  Env_model.step t.env ~dt_ms:t.sample_interval_ms;
  Hashtbl.iter
    (fun id ds ->
      List.iter
        (fun attr ->
          match Env.of_sensor_attribute attr with
          | Some feature ->
            let v = int_of_float (Float.round (Env_model.value t.env feature)) in
            let prov = Option.value ~default:[] (Hashtbl.find_opt t.feature_prov feature) in
            set_attribute t ~prov id attr (string_of_int v)
          | None -> ())
        (Device.attributes ds.device))
    t.devices

(* The device label the mediator sees for an action — the same label
   [execute] logs in the trace. *)
let action_device iapp (action : Rule.action) =
  match action.Rule.target with
  | Rule.Act_device var -> (
    match device_of_var iapp var with Some d -> Some d.Device.label | None -> None)
  | Rule.Act_location_mode -> Some "location"
  | Rule.Act_messaging | Rule.Act_http | Rule.Act_hub ->
    Some (Rule.target_to_string action.Rule.target)

(* Consult the mediator (when armed) before dispatching a command. *)
let dispatch t iapp rule action prov deferrals =
  match t.mediator with
  | None -> execute t prov iapp rule action
  | Some m -> (
    match action_device iapp action with
    | None -> execute t prov iapp rule action
    | Some device -> (
      let query =
        {
          Mediator.app = iapp.app.Rule.name;
          rule = rule.Rule.rule_id;
          device;
          command = action.Rule.command;
          provenance = prov;
          deferrals;
        }
      in
      match Mediator.judge m ~at:t.now query with
      | Mediator.Allow -> execute t prov iapp rule action
      | Mediator.Suppress reason ->
        log t
          (Trace.Suppressed
             {
               at = t.now;
               app = iapp.app.Rule.name;
               rule = rule.Rule.rule_id;
               device;
               command = action.Rule.command;
               reason;
             })
      | Mediator.Defer { delay_ms; _ } ->
        let until = t.now + delay_ms in
        log t
          (Trace.Deferred
             {
               at = t.now;
               app = iapp.app.Rule.name;
               rule = rule.Rule.rule_id;
               device;
               command = action.Rule.command;
               until;
             });
        Event_queue.push t.queue until
          (Execute { iapp; rule; action; prov; deferrals = deferrals + 1 })))

(** Run the simulation until [until_ms]. Events scheduled past the
    horizon (a deferred command, the next sample) stay queued for later
    [run] calls. *)
let run t ~until_ms =
  if not t.sample_scheduled then begin
    t.sample_scheduled <- true;
    Event_queue.push t.queue (t.now + t.sample_interval_ms) Sample
  end;
  let rec loop () =
    match Event_queue.pop_until t.queue until_ms with
    | None -> ()
    | Some (time, item) ->
      t.now <- max t.now time;
      (match item with
      | Deliver { source; attribute; value; prov } -> deliver t prov ~source ~attribute ~value
      | Execute { iapp; rule; action; prov; deferrals } ->
        dispatch t iapp rule action prov deferrals
      | Sample ->
        sample t;
        Event_queue.push t.queue (t.now + t.sample_interval_ms) Sample);
      loop ()
  in
  loop ();
  t.now <- until_ms
