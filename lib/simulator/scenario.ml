(** Pre-built verification scenarios.

    The paper verifies discovered threats by installing the involved
    apps and observing behaviour (§VIII-A: "we observed a variety of
    results: the switch is turned on only, turned off only, turned on
    then off, and turned off then on"). These helpers build a home,
    install extracted apps with concrete bindings, inject stimuli and
    summarize what the trace shows. *)

module Rule = Homeguard_rules.Rule
module Device = Homeguard_st.Device

(** Trace of one seeded run of [setup; stimulate; run], optionally
    under a reference monitor. *)
let run_once ?(seed = 1) ?mediator ~until_ms ~setup () =
  let t = Engine.create ~seed ?mediator () in
  setup t;
  Engine.run t ~until_ms;
  Engine.trace t

(** Run the same scenario under many seeds and collect the distinct
    final states of the watched attribute — the actuator-race
    nondeterminism measurement. *)
let race_outcomes ?(seeds = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]) ?mediator ~until_ms ~setup
    ~device ~attribute () =
  let outcomes =
    List.map
      (fun seed ->
        let mediator = Option.map (fun make -> make ()) mediator in
        let trace = run_once ~seed ?mediator ~until_ms ~setup () in
        let timeline = Trace.attribute_timeline trace device attribute in
        (List.map snd timeline, Trace.final_attribute trace device attribute))
      seeds
  in
  List.sort_uniq compare outcomes
