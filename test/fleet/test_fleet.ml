(** Fleet suite: circuit-breaker state machine, heartbeat health
    checks, supervised restart and rebalance, the seeded chaos smoke
    campaign and the synthetic-home generator.

    Runs as its own executable (like [test/serve] and [test/faults])
    because chaos campaigns arm the global storage fault hook, which
    must never leak into the main suite. *)

module Breaker = Homeguard_fleet.Breaker
module Health = Homeguard_fleet.Health
module Shard = Homeguard_fleet.Shard
module Supervisor = Homeguard_fleet.Supervisor
module Chaos = Homeguard_fleet.Chaos
module Broker = Homeguard_serve.Broker
module Shed = Homeguard_serve.Shed
module Home = Homeguard_store.Home
module Fence = Homeguard_store.Fence
module Scrub = Homeguard_store.Scrub
module Journal = Homeguard_store.Journal
module Surface = Homeguard_store.Surface
module Policy = Homeguard_handling.Policy
module Repro = Homeguard_fleet.Repro
module Vcache = Homeguard_vcache.Vcache
module Extract = Homeguard_symexec.Extract
module Rule = Homeguard_rules.Rule
module Corpus = Homeguard_corpus.Corpus
module Synth = Homeguard_corpus.Synth
module App_entry = Homeguard_corpus.App_entry

let test name f = Alcotest.test_case name `Quick f
let check_bool m = Alcotest.(check bool) m
let check_int m = Alcotest.(check int) m

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hg_fleet_%d_%d" (Unix.getpid ()) !tmp_counter)
  in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
  dir

let manual_clock () =
  let now = ref 0.0 in
  ((fun () -> !now), fun ms -> now := !now +. ms)

let corpus_app name =
  match
    List.find_opt (fun e -> e.App_entry.name = name) Corpus.audit_apps
  with
  | Some e -> (Extract.extract_source ~name e.App_entry.source).Extract.app
  | None -> Alcotest.failf "no corpus app %s" name

(* -- circuit breaker ---------------------------------------------------------- *)

let breaker_trips_at_threshold =
  test "the breaker trips after N consecutive failures, not before" (fun () ->
      let clock, advance = manual_clock () in
      let b =
        Breaker.create ~failure_threshold:3 ~reset_timeout_ms:100.0 clock
      in
      check_bool "starts closed" true (Breaker.state b = Breaker.Closed);
      Breaker.note_failure b;
      Breaker.note_failure b;
      check_bool "two failures stay closed" true (Breaker.state b = Breaker.Closed);
      (* a success resets the streak *)
      Breaker.note_success b;
      Breaker.note_failure b;
      Breaker.note_failure b;
      check_bool "streak was reset" true (Breaker.state b = Breaker.Closed);
      Breaker.note_failure b;
      check_bool "third consecutive failure trips" true (Breaker.state b = Breaker.Open);
      check_int "one trip" 1 (Breaker.trips b);
      (match Breaker.allow b with
      | `Reject ms -> check_bool "positive shed window" true (ms > 0.0 && ms <= 100.0)
      | _ -> Alcotest.fail "open breaker must reject");
      (* the shed window shrinks as time passes *)
      advance 60.0;
      (match Breaker.allow b with
      | `Reject ms -> check_bool "window shrinks" true (ms <= 40.0)
      | _ -> Alcotest.fail "still open"))

let breaker_half_open_probes =
  test "after the reset timeout, K probe successes close the breaker" (fun () ->
      let clock, advance = manual_clock () in
      let b =
        Breaker.create ~failure_threshold:1 ~reset_timeout_ms:100.0 clock
      in
      Breaker.note_failure b;
      check_bool "tripped" true (Breaker.state b = Breaker.Open);
      advance 100.0;
      (match Breaker.allow b with
      | `Probe -> ()
      | _ -> Alcotest.fail "elapsed reset timeout must admit a probe");
      check_bool "half-open now" true (Breaker.state b = Breaker.Half_open);
      Breaker.note_success b;
      check_bool "one success is not enough" true
        (Breaker.state b = Breaker.Half_open);
      (match Breaker.allow b with `Probe -> () | _ -> Alcotest.fail "second probe");
      Breaker.note_success b;
      check_bool "closed after K probe successes" true
        (Breaker.state b = Breaker.Closed);
      (match Breaker.allow b with `Admit -> () | _ -> Alcotest.fail "admits again"))

let breaker_probe_failure_reopens =
  test "a probe failure re-opens immediately and restarts the clock" (fun () ->
      let clock, advance = manual_clock () in
      let b =
        Breaker.create ~failure_threshold:1 ~reset_timeout_ms:100.0 clock
      in
      Breaker.note_failure b;
      advance 100.0;
      (match Breaker.allow b with `Probe -> () | _ -> Alcotest.fail "probe");
      Breaker.note_failure b;
      check_bool "reopened" true (Breaker.state b = Breaker.Open);
      check_int "second trip counted" 2 (Breaker.trips b);
      (match Breaker.allow b with
      | `Reject ms -> check_bool "full window again" true (ms > 99.0)
      | _ -> Alcotest.fail "must reject after reopening"))

let breaker_begin_probing =
  test "begin_probing skips the shed window after a supervised restart" (fun () ->
      let clock, _ = manual_clock () in
      let b =
        Breaker.create ~failure_threshold:1 ~reset_timeout_ms:1000.0 clock
      in
      Breaker.note_failure b;
      (match Breaker.allow b with `Reject _ -> () | _ -> Alcotest.fail "open");
      Breaker.begin_probing b;
      check_bool "half-open without waiting" true
        (Breaker.state b = Breaker.Half_open);
      (match Breaker.allow b with `Probe -> () | _ -> Alcotest.fail "probe now");
      Breaker.note_success b;
      (match Breaker.allow b with `Probe -> () | _ -> Alcotest.fail "second probe");
      Breaker.note_success b;
      check_bool "closed" true (Breaker.state b = Breaker.Closed))

(* -- health ------------------------------------------------------------------- *)

let health_missed_beats =
  test "missed whole intervals escalate Alive -> Late -> Failed" (fun () ->
      let clock, advance = manual_clock () in
      let h = Health.create ~interval_ms:100.0 clock in
      check_bool "fresh is alive" true (Health.status h = Health.Alive);
      advance 150.0;
      (match Health.status h with
      | Health.Late 1 -> ()
      | _ -> Alcotest.fail "one missed interval is Late 1");
      Health.beat h;
      check_bool "a beat restores Alive" true (Health.status h = Health.Alive);
      advance 320.0;
      (match Health.status h with
      | Health.Failed n -> check_int "three whole intervals missed" 3 n
      | _ -> Alcotest.fail "must be Failed at the threshold");
      check_int "explicit beats counted (creation is not one)" 1 (Health.beats h))

(* -- supervisor --------------------------------------------------------------- *)

let sup_config ~clock ?(shards = 2) ?(restart_budget = 3) () =
  {
    Supervisor.default_config with
    Supervisor.shards;
    heartbeat_interval_ms = 100.0;
    failure_threshold = 2;
    reset_timeout_ms = 200.0;
    restart_budget;
    backoff_base_ms = 50.0;
    backoff_cap_ms = 200.0;
    seed = 7;
    fsync = false;
    clock;
  }

let homes4 = [ "alpha"; "beta"; "gamma"; "delta" ]

let settle t advance =
  (* drive restarts to completion under the manual clock *)
  let shards = (Supervisor.stats t).Supervisor.shards in
  let rec go n =
    let restarting =
      List.exists
        (fun i -> Supervisor.shard_state t i = `Restarting)
        (List.init shards Fun.id)
    in
    if restarting && n > 0 then begin
      advance 50.0;
      Supervisor.beat_all t;
      Supervisor.tick t;
      go (n - 1)
    end
  in
  go 100

let supervisor_restart_preserves_state =
  test "a killed shard restarts from its journals with state intact" (fun () ->
      let clock, advance = manual_clock () in
      let dir = fresh_dir () in
      let t =
        Supervisor.create ~config:(sup_config ~clock ()) ~dir ~homes:homes4 ()
      in
      let victim_home = "alpha" in
      let owner =
        match Supervisor.owner_of t victim_home with
        | Some s -> s
        | None -> Alcotest.fail "alpha must be placed"
      in
      (* durable state on the victim: an install, a decision, a
         quarantine *)
      (match
         Supervisor.run t ~home:victim_home (fun sh ->
             let h = Broker.home (Shard.broker sh) victim_home in
             ignore (Home.install_app h (corpus_app "AtticFanController"));
             Home.set_decision h "AtticFanController#1" Policy.Confirm;
             Home.quarantine h ~app:"Gatekeeper" ~reason:"test";
             Home.last_seq h)
       with
      | Supervisor.Done _ -> ()
      | _ -> Alcotest.fail "healthy shard must serve");
      check_bool "killed" true (Supervisor.kill t owner);
      check_bool "restarting" true (Supervisor.shard_state t owner = `Restarting);
      (* while down: honest Unavailable with a positive hint, and the
         degraded outcome names the shard *)
      (match Supervisor.run t ~home:victim_home (fun _ -> ()) with
      | Supervisor.Unavailable { shard; retry_after_ms; _ } ->
        check_int "routed to the owner" owner shard;
        check_bool "positive hint" true (retry_after_ms > 0);
        (match Supervisor.to_outcome (Supervisor.run t ~home:victim_home (fun _ -> ())) with
        | Shed.Degraded { reason = Shed.Shard_unavailable { shard = label; _ }; _ } ->
          check_bool "outcome names the shard" true
            (label = Supervisor.shard_label owner)
        | _ -> Alcotest.fail "unavailable must map to Degraded/Shard_unavailable")
      | _ -> Alcotest.fail "a restarting shard must reply Unavailable");
      (* the other shard keeps serving while the victim is down *)
      let other_home =
        match
          List.find_opt
            (fun h -> Supervisor.owner_of t h <> Some owner)
            homes4
        with
        | Some h -> h
        | None -> Alcotest.fail "expected a home on the surviving shard"
      in
      (match Supervisor.run t ~home:other_home (fun _ -> `ok) with
      | Supervisor.Done { value = `ok; _ } -> ()
      | _ -> Alcotest.fail "healthy shards must keep serving");
      settle t advance;
      check_bool "victim is back" true (Supervisor.shard_state t owner = `Running);
      (match
         Supervisor.run t ~home:victim_home (fun sh ->
             let h = Broker.home (Shard.broker sh) victim_home in
             ( List.exists
                 (fun (a : Rule.smartapp) -> a.Rule.name = "AtticFanController")
                 (Home.installed_apps h),
               List.mem_assoc "AtticFanController#1"
                 (Policy.decisions
                    (Homeguard_frontend.Install_flow.policies (Home.flow h))),
               Home.is_quarantined h "Gatekeeper" ))
       with
      | Supervisor.Done { value = (true, true, true); _ } -> ()
      | Supervisor.Done { value = (i, d, q); _ } ->
        Alcotest.failf "state lost across restart: install=%b decision=%b quarantine=%b"
          i d q
      | _ -> Alcotest.fail "restarted shard must serve");
      let st = Supervisor.stats t in
      check_bool "restart counted" true (st.Supervisor.restarts >= 1);
      check_bool "recoveries recorded" true (st.Supervisor.recoveries > 0);
      Supervisor.close t)

let supervisor_rebalance_on_dead_shard =
  test "an out-of-budget shard goes Dead and its homes rebalance" (fun () ->
      let clock, _ = manual_clock () in
      let dir = fresh_dir () in
      let t =
        Supervisor.create
          ~config:(sup_config ~clock ~shards:3 ~restart_budget:0 ())
          ~dir ~homes:homes4 ()
      in
      (* seed state into every home so the moved ones prove journal
         recovery on their new shard *)
      List.iter
        (fun id ->
          match
            Supervisor.run t ~home:id (fun sh ->
                ignore
                  (Home.install_app
                     (Broker.home (Shard.broker sh) id)
                     (corpus_app "BonVoyage")))
          with
          | Supervisor.Done _ -> ()
          | _ -> Alcotest.fail "seeding must succeed")
        homes4;
      let victim =
        (* kill a shard that actually owns homes *)
        match List.find_map (Supervisor.owner_of t) homes4 with
        | Some s -> s
        | None -> Alcotest.fail "no owner found"
      in
      let moved = Supervisor.homes_of t victim in
      check_bool "victim owns homes" true (moved <> []);
      check_bool "killed" true (Supervisor.kill t victim);
      (* budget 0: the kill exhausts it immediately — no restart window *)
      check_bool "dead" true (Supervisor.shard_state t victim = `Dead);
      check_bool "no homes left on the corpse" true
        (Supervisor.homes_of t victim = []);
      List.iter
        (fun id ->
          (match Supervisor.owner_of t id with
          | Some s when s <> victim -> ()
          | Some _ -> Alcotest.failf "%s still owned by the dead shard" id
          | None -> Alcotest.failf "%s lost its owner" id);
          match
            Supervisor.run t ~home:id (fun sh ->
                List.exists
                  (fun (a : Rule.smartapp) -> a.Rule.name = "BonVoyage")
                  (Home.installed_apps (Broker.home (Shard.broker sh) id)))
          with
          | Supervisor.Done { value = true; _ } -> ()
          | Supervisor.Done { value = false; _ } ->
            Alcotest.failf "%s lost its install in the move" id
          | _ -> Alcotest.failf "%s must be servable after rebalance" id)
        moved;
      let st = Supervisor.stats t in
      check_int "one dead shard" 1 st.Supervisor.dead_shards;
      check_bool "rebalances counted" true
        (st.Supervisor.rebalanced_homes >= List.length moved);
      Supervisor.close t)

let supervisor_stall_detection =
  test "a stalled shard (no beats) is caught by tick and restarted" (fun () ->
      let clock, advance = manual_clock () in
      let dir = fresh_dir () in
      let t =
        Supervisor.create
          ~config:(sup_config ~clock ~shards:1 ())
          ~dir ~homes:[ "solo" ] ()
      in
      (* no beats while the clock runs: 3 whole intervals missed *)
      advance 350.0;
      Supervisor.tick t;
      check_bool "restart scheduled for the stalled shard" true
        (Supervisor.shard_state t 0 = `Restarting);
      settle t advance;
      check_bool "back up" true (Supervisor.shard_state t 0 = `Running);
      check_bool "kill counted" true ((Supervisor.stats t).Supervisor.kills >= 1);
      Supervisor.close t)

let crashed_reply_carries_retry_hint =
  test "a request that crashes its shard gets a positive retry hint" (fun () ->
      let clock, advance = manual_clock () in
      let dir = fresh_dir () in
      let t =
        Supervisor.create ~config:(sup_config ~clock ()) ~dir ~homes:homes4 ()
      in
      (match
         Supervisor.run t ~home:"alpha" (fun _ -> raise (Journal.Crashed "boom"))
       with
      | Supervisor.Crashed { retry_after_ms; error; _ } ->
        check_bool "positive hint on the crash reply" true (retry_after_ms > 0);
        check_bool "error text" true (error = "boom")
      | _ -> Alcotest.fail "a crashing request must reply Crashed");
      (* the degraded outcome carries the same honest hint — a zero
         hint would make clients hammer a shard that is mid-restart *)
      (match
         Supervisor.to_outcome
           (Supervisor.run t ~home:"alpha" (fun _ -> raise (Journal.Crashed "again")))
       with
      | Shed.Degraded { reason = Shed.Shard_unavailable { retry_after_ms; _ }; _ }
        ->
        check_bool "outcome hint positive" true (retry_after_ms > 0)
      | _ -> Alcotest.fail "crash must degrade with a shard-unavailable reason");
      settle t advance;
      Supervisor.close t)

let drain_hints_as_run_does =
  test "drain and run give a killed shard with an open breaker one retry hint"
    (fun () ->
      let clock, _ = manual_clock () in
      let dir = fresh_dir () in
      let t =
        Supervisor.create
          ~config:
            {
              (sup_config ~clock ()) with
              Supervisor.failure_threshold = 1;
              reset_timeout_ms = 5_000.0;
            }
          ~dir ~homes:homes4 ()
      in
      let owner = Option.get (Supervisor.owner_of t "alpha") in
      check_bool "killed" true (Supervisor.kill t owner);
      let hint = function
        | Supervisor.Unavailable { retry_after_ms; _ } -> retry_after_ms
        | _ -> Alcotest.fail "a killed shard must reply Unavailable"
      in
      let from_run = hint (Supervisor.run t ~home:"alpha" (fun _ -> ())) in
      check_int "the breaker's shed window" 5_000 from_run;
      check_int "drain hints as run does" from_run
        (hint (Supervisor.drain t ~shard:owner));
      Supervisor.close t)

let wedged_shard_is_fenced =
  test "a wedged shard's writes are fenced after its homes move on" (fun () ->
      let clock, advance = manual_clock () in
      let dir = fresh_dir () in
      let t =
        Supervisor.create
          ~config:(sup_config ~clock ~shards:2 ())
          ~dir ~homes:homes4 ()
      in
      let victim_home = "alpha" in
      let owner = Option.get (Supervisor.owner_of t victim_home) in
      (match
         Supervisor.run t ~home:victim_home (fun sh ->
             ignore
               (Home.install_app
                  (Broker.home (Shard.broker sh) victim_home)
                  (corpus_app "BonVoyage")))
       with
      | Supervisor.Done _ -> ()
      | _ -> Alcotest.fail "seed install must land");
      let before = Fence.rejections () in
      let zombie =
        match Supervisor.wedge t owner with
        | Some z -> z
        | None -> Alcotest.fail "a running shard must wedge"
      in
      (* the replacement comes up and re-acquires every home at a
         strictly higher epoch *)
      settle t advance;
      check_bool "replacement running" true
        (Supervisor.shard_state t owner = `Running);
      let zhome = Broker.home (Shard.broker zombie) victim_home in
      check_bool "epochs moved past the zombie" true
        (Fence.current (Home.dir zhome) > Home.epoch zhome);
      (* the revived stale owner tries to append: fenced, nothing lands *)
      (match Home.set_decision zhome "zombie-threat" Policy.Allow with
      | () -> Alcotest.fail "stale append must raise Fence.Stale"
      | exception Fence.Stale _ -> ());
      check_bool "rejection counted" true (Fence.rejections () > before);
      Shard.close zombie;
      (* the current owner still serves, and never saw the zombie's
         decision *)
      (match
         Supervisor.run t ~home:victim_home (fun sh ->
             let h = Broker.home (Shard.broker sh) victim_home in
             List.mem_assoc "zombie-threat"
               (Policy.decisions
                  (Homeguard_frontend.Install_flow.policies (Home.flow h))))
       with
      | Supervisor.Done { value = false; _ } -> ()
      | Supervisor.Done { value = true; _ } ->
        Alcotest.fail "the fenced decision leaked into the live home"
      | _ -> Alcotest.fail "current owner must serve");
      let st = Supervisor.stats t in
      check_bool "stale rejections surfaced in stats" true
        (st.Supervisor.stale_rejections > 0);
      Supervisor.close t)

let supervisor_scrub_converges =
  test "fleet scrub read-repairs damaged replicas and is idempotent" (fun () ->
      let clock, _ = manual_clock () in
      let dir = fresh_dir () in
      let t =
        Supervisor.create ~config:(sup_config ~clock ()) ~dir ~homes:homes4 ()
      in
      List.iter
        (fun id ->
          match
            Supervisor.run t ~home:id (fun sh ->
                ignore
                  (Home.install_app
                     (Broker.home (Shard.broker sh) id)
                     (corpus_app "BonVoyage")))
          with
          | Supervisor.Done _ -> ()
          | _ -> Alcotest.fail "seeding must succeed")
        homes4;
      (* destroy one home's replica copy behind the fleet's back *)
      let rj = Filename.concat dir "r1/h_alpha/journal" in
      check_bool "replica journal exists" true (Sys.file_exists rj);
      Sys.remove rj;
      let c = Supervisor.scrub t in
      check_int "every home covered" (List.length homes4) c.Scrub.homes;
      check_int "the damaged home was repaired" 1 c.Scrub.repaired_homes;
      check_bool "records healed into the recreated replica" true
        (c.Scrub.records_healed > 0);
      check_int "all homes converged" 0 c.Scrub.unconverged;
      check_bool "replica restored" true (Sys.file_exists rj);
      let c2 = Supervisor.scrub t in
      check_int "second pass all healthy" c2.Scrub.homes c2.Scrub.healthy;
      check_int "second pass repairs nothing" 0 c2.Scrub.repaired_homes;
      (* the scrubbed (live) home still serves writes afterwards *)
      (match
         Supervisor.run t ~home:"alpha" (fun sh ->
             Home.set_decision
               (Broker.home (Shard.broker sh) "alpha")
               "post-scrub" Policy.Confirm)
       with
      | Supervisor.Done _ -> ()
      | _ -> Alcotest.fail "scrubbed home must keep serving");
      Supervisor.close t)

(* Fault isolation in proportion: 16 synthetic homes on 4 shards, with
   0, 1 and 2 shards killed and held down (no tick, so nothing
   restarts). Every home a surviving shard owns is served in full;
   every home a dead shard owns is refused. *)
let dead_shards_refuse_only_their_homes =
  test "dead shards refuse exactly their own homes (16/12/10 served)" (fun () ->
      let synth = Corpus.synth ~seed:7 ~n_homes:16 in
      check_int "fleet size" 16 (List.length synth);
      let sweep dead =
        let config =
          { Supervisor.default_config with Supervisor.shards = 4; fsync = false }
        in
        let t =
          Supervisor.create ~config ~dir:(fresh_dir ())
            ~homes:(List.map (fun (h : Synth.home) -> h.Synth.id) synth)
            ()
        in
        for s = 0 to dead - 1 do
          check_bool "kill lands" true (Supervisor.kill t s)
        done;
        let live id =
          match Supervisor.owner_of t id with
          | Some s -> Supervisor.shard_state t s = `Running
          | None -> false
        in
        let served = ref 0 and refused = ref 0 in
        List.iter
          (fun (h : Synth.home) ->
            let expect_live = live h.Synth.id in
            List.iteri
              (fun i uri ->
                let ok =
                  match Supervisor.deliver t ~home:h.Synth.id ~seq:(i + 1) uri with
                  | Supervisor.Done _ ->
                    incr served;
                    expect_live
                  | Supervisor.Unavailable _ | Supervisor.Crashed _ ->
                    incr refused;
                    not expect_live
                in
                if not ok then
                  Alcotest.failf "dead=%d: home %s breaks isolation" dead h.Synth.id)
              h.Synth.configs)
          synth;
        let homes = List.length (List.filter (fun (h : Synth.home) -> live h.Synth.id) synth) in
        Supervisor.close t;
        (homes, !served, !refused)
      in
      let homes0, ops0, refused0 = sweep 0 in
      check_int "homes served, none dead" 16 homes0;
      check_int "ops served, none dead" 24 ops0;
      check_int "ops refused, none dead" 0 refused0;
      let homes1, ops1, _ = sweep 1 in
      check_int "homes served, one dead" 12 homes1;
      check_int "ops served, one dead" 18 ops1;
      let homes2, ops2, _ = sweep 2 in
      check_int "homes served, two dead" 10 homes2;
      check_int "ops served, two dead" 16 ops2)

(* -- chaos -------------------------------------------------------------------- *)

let chaos_smoke_campaign =
  test "the seeded smoke campaign passes all four invariants" (fun () ->
      let dir = fresh_dir () in
      let report = Chaos.run ~config:Chaos.smoke_config ~dir () in
      check_bool "campaign passed" true (Chaos.passed report);
      List.iter
        (fun (i : Chaos.invariant) ->
          if not i.Chaos.ok then
            Alcotest.failf "invariant %s violated: %s" i.Chaos.name i.Chaos.detail)
        report.Chaos.invariants;
      check_int "distinct shards killed" 3 report.Chaos.shards_killed;
      check_int "distinct shards recovered" 3 report.Chaos.shards_recovered;
      check_bool "healthy shards served while others were down" true
        (report.Chaos.tally.Chaos.served_while_impaired > 0);
      check_bool "render is non-empty" true
        (String.length (Chaos.render report) > 0);
      (* a violated invariant whose detail names verdict-cache class
         keys, which hold newlines, still renders on its one line *)
      let lines r = List.length (String.split_on_char '\n' (Chaos.render r)) in
      let violated =
        {
          Chaos.name = "cache-no-poisoned-entry";
          ok = false;
          detail = "1 reopened entries checked against live state: vck1\nfp=x\nkind=cond";
        }
      in
      check_int "one line per invariant"
        (lines { report with Chaos.invariants = [] } + 1)
        (lines { report with Chaos.invariants = [ violated ] });
      (* split-brain coverage: the stall-then-revive window produced a
         zombie whose appends were all fenced *)
      check_bool "zombie appends attempted" true
        (report.Chaos.tally.Chaos.zombie_rejected > 0);
      check_int "no stale append went durable" 0 report.Chaos.tally.Chaos.zombie_accepted;
      (* the verdict cache rides the same schedule: two cache-replica
         faults, and no stale cache probe accepted *)
      check_int "scheduled cache faults" 2
        (List.length
           (List.filter
              (fun (e : Chaos.scheduled) ->
                match e.Chaos.ev with
                | Chaos.Cache_destroy _ | Chaos.Cache_corrupt _ -> true
                | _ -> false)
              report.Chaos.schedule));
      check_int "no stale cache probe accepted" 0 report.Chaos.tally.Chaos.cache_probe_accepted;
      (* anti-entropy coverage: the scrub pass walked every home and
         converged the fleet; the second pass had nothing to do *)
      check_int "scrub covered the fleet" report.Chaos.config.Chaos.homes
        report.Chaos.scrub.Scrub.homes;
      check_int "scrub converged" 0 report.Chaos.scrub.Scrub.unconverged;
      check_int "rescrub repaired nothing" 0
        report.Chaos.scrub_second.Scrub.repaired_homes;
      List.iter
        (fun n ->
          if
            not
              (List.exists
                 (fun (i : Chaos.invariant) -> i.Chaos.name = n)
                 report.Chaos.invariants)
          then Alcotest.failf "replication invariant %s was not verified" n)
        [ "no-stale-epoch-accepted"; "scrub-convergence"; "scrub-idempotent" ];
      (* the fault hook must not leak out of the campaign *)
      check_bool "storage faults disarmed" true (not (Journal.storage_armed ())))

let chaos_cache_invariants =
  test "the verdict-cache invariants are verified and hold under chaos"
    (fun () ->
      let cfg = { Chaos.smoke_config with Chaos.steps = 80 } in
      let report = Chaos.run ~config:cfg ~dir:(fresh_dir ()) () in
      let names = List.map (fun (i : Chaos.invariant) -> i.Chaos.name) report.Chaos.invariants in
      List.iter
        (fun n ->
          if not (List.mem n names) then
            Alcotest.failf "cache invariant %s was not verified" n)
        [
          "cache-replay-determinism";
          "cache-no-poisoned-entry";
          "cache-no-conflicts";
          "cache-warm-restart";
        ];
      check_bool "campaign passed" true (Chaos.passed report);
      (* with the cache off, the cache invariants are not in scope *)
      let off =
        Chaos.run
          ~config:{ cfg with Chaos.vcache = false; Chaos.steps = 40 }
          ~dir:(fresh_dir ()) ()
      in
      check_bool "no cache invariants when disabled" true
        (List.for_all
           (fun (i : Chaos.invariant) ->
             not
               (String.length i.Chaos.name >= 6
               && String.sub i.Chaos.name 0 6 = "cache-"))
           off.Chaos.invariants);
      check_bool "uncached campaign passed" true (Chaos.passed off))

let chaos_is_deterministic =
  test "two campaigns with the same seed report identical workloads" (fun () ->
      let cfg = { Chaos.smoke_config with Chaos.steps = 60 } in
      let r1 = Chaos.run ~config:cfg ~dir:(fresh_dir ()) () in
      let r2 = Chaos.run ~config:cfg ~dir:(fresh_dir ()) () in
      check_int "same ops" r1.Chaos.tally.Chaos.ops r2.Chaos.tally.Chaos.ops;
      check_int "same installs" r1.Chaos.tally.Chaos.installs_acked
        r2.Chaos.tally.Chaos.installs_acked;
      check_int "same configs" r1.Chaos.tally.Chaos.configs_acked
        r2.Chaos.tally.Chaos.configs_acked;
      check_int "same kills" r1.Chaos.stats.Supervisor.kills
        r2.Chaos.stats.Supervisor.kills)

(* The primary replica's root is the fleet directory itself, so a
   storage-fault key built from path components would move the fault
   plan with the directory's name. *)
let chaos_ignores_fleet_root_name =
  test "a seed fixes the campaign whatever the fleet root is called" (fun () ->
      let config = Chaos.default_config (* seed 42 *) in
      let d1 = fresh_dir () in
      let d2 = d1 ^ "_renamed" in
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote d2)));
      let r1 = Chaos.render (Chaos.run ~config ~dir:d1 ()) in
      let r2 = Chaos.render (Chaos.run ~config ~dir:d2 ()) in
      Alcotest.(check string) "same report" r1 r2)

(* -- the cache durability contract -------------------------------------------- *)

let contains_sub sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

let vcache_zombie_probe_never_lands =
  test "a wedged shard's cache writes are fenced: no stale byte on any replica"
    (fun () ->
      let clock, advance = manual_clock () in
      let dir = fresh_dir () in
      let t =
        Supervisor.create ~config:(sup_config ~clock ()) ~dir ~homes:homes4 ()
      in
      (* populate the shared cache through a real audited install *)
      (match
         Supervisor.run t ~home:"alpha" (fun sh ->
             ignore
               (Home.install_app
                  (Broker.home (Shard.broker sh) "alpha")
                  (corpus_app "BonVoyage")))
       with
      | Supervisor.Done _ -> ()
      | _ -> Alcotest.fail "seed install must land");
      (* two zombie generations: wedge the current owner, let the
         replacement attach a successor epoch under the same owner key,
         then drive the retained handle — every durable write fenced *)
      let fenced = ref 0 in
      for _gen = 1 to 2 do
        let victim = Option.get (Supervisor.owner_of t "alpha") in
        let z =
          match Supervisor.wedge t victim with
          | Some z -> z
          | None -> Alcotest.fail "a running shard must wedge"
        in
        settle t advance;
        let h = Option.get (Shard.vcache z) in
        check_bool "the successor attach moved the owner fence past the zombie"
          true
          (Fence.current (Vcache.fence_key h) > Vcache.handle_epoch h);
        for _ = 1 to 4 do
          match Vcache.probe_write h with
          | `Fenced -> incr fenced
          | `Accepted | `Dropped ->
            Alcotest.fail "a stale cache write went durable"
        done;
        check_bool "stale writes counted on the zombie handle" true
          ((Vcache.counters h).Vcache.stale_writes >= 4);
        Shard.close z
      done;
      check_int "every probe fenced" 8 !fenced;
      Supervisor.close t;
      (* durable evidence: no probe record on any cache replica file,
         and a warm reopen never surfaces one *)
      let cdirs =
        [ Filename.concat dir "vcache"; Filename.concat dir "r1/vcache" ]
      in
      List.iter
        (fun d ->
          List.iter
            (fun f ->
              let sc = Journal.scan (Filename.concat d f) in
              check_int
                (Printf.sprintf "no probe record in %s" (Filename.concat d f))
                0
                (List.length
                   (List.filter (contains_sub "~chaos/") sc.Journal.records)))
            [ "cache.snapshot"; "cache.journal" ])
        cdirs;
      let st =
        Vcache.open_store ~fsync:false
          ~replicas:[ Filename.concat dir "r1/vcache" ]
          ~dir:(Filename.concat dir "vcache") ()
      in
      check_bool "warm reopen has no probe key" true
        (List.for_all
           (fun (k, _) -> not (contains_sub "~chaos/" k))
           (Vcache.dump st));
      Vcache.close_store st)

let flip_byte_at path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      let b = Bytes.create 1 in
      check_int "read one byte" 1 (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x20));
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1))

(* Bit-rot one byte in the middle of [victim], a replica's cache
   journal, then scrub twice: the first pass patches exactly the
   damaged frame, the second finds nothing to write. *)
let check_frame_repair label victim scrub =
  let check_bool m = check_bool (label ^ ": " ^ m)
  and check_int m = check_int (label ^ ": " ^ m) in
  check_bool "replica cache journal exists" true (Sys.file_exists victim);
  let size = (Unix.stat victim).Unix.st_size in
  check_bool "cache journal is non-trivial" true (size > 64);
  flip_byte_at victim (size / 2);
  let r = scrub () in
  check_bool "scrub converged the cache replicas" true r.Scrub.converged;
  check_int "exactly the damaged frame was patched" 1 r.Scrub.patched_frames;
  check_bool "repair I/O bounded by the damage, not the file size" true
    (r.Scrub.repair_bytes > 0 && r.Scrub.repair_bytes < size);
  let r2 = scrub () in
  check_bool "second pass finds a healthy converged cache" true
    (r2.Scrub.healthy && r2.Scrub.converged);
  check_int "second pass writes nothing" 0 r2.Scrub.repair_bytes

let cache_scrub_patches_frames =
  test "cache scrub patches only the damaged frame and is idempotent" (fun () ->
      let clock, _ = manual_clock () in
      let dir = fresh_dir () in
      let t =
        Supervisor.create ~config:(sup_config ~clock ()) ~dir ~homes:homes4 ()
      in
      (* real audits populate the cache journal with verdict entries —
         two mode-touching apps per home, so every audit has pairs to
         solve and cache *)
      List.iter
        (fun id ->
          List.iter
            (fun app ->
              match
                Supervisor.run t ~home:id (fun sh ->
                    ignore
                      (Home.install_app
                         (Broker.home (Shard.broker sh) id)
                         (corpus_app app)))
              with
              | Supervisor.Done _ -> ()
              | _ -> Alcotest.fail "seed install must land")
            [ "GoodNight"; "RiseAndShine"; "SunsetMode" ];
          match Supervisor.submit_audit t ~home:id () with
          | Supervisor.Done { value = Ok _; shard } ->
            ignore (Supervisor.drain t ~shard)
          | _ -> ())
        homes4;
      check_frame_repair "audited fleet"
        (Filename.concat dir "r1/vcache/cache.journal")
        (fun () -> Option.get (Supervisor.scrub_cache t));
      Supervisor.close t;
      (* a closed two-replica store holding 20 probe records, scrubbed
         offline *)
      let root = fresh_dir () in
      let primary = Filename.concat root "vcache"
      and replica = Filename.concat root "r1/vcache" in
      let st = Vcache.open_store ~fsync:false ~replicas:[ replica ] ~dir:primary () in
      let h = Vcache.attach st ~owner:"probe" in
      for _ = 1 to 20 do
        match Vcache.probe_write h with
        | `Accepted -> ()
        | `Fenced | `Dropped -> Alcotest.fail "a probe append must land"
      done;
      Vcache.close_store st;
      check_frame_repair "probe-filled store"
        (Filename.concat replica "cache.journal")
        (fun () ->
          Surface.scrub (Surface.at ~fsync:false Surface.Cache [ primary; replica ])))

(* -- repros and the shrinker --------------------------------------------------- *)

let repro_round_trip =
  test "repro text round-trips every event kind and rejects junk" (fun () ->
      let schedule =
        [
          { Chaos.at = 1; ev = Chaos.Kill { victim = 2 } };
          { Chaos.at = 2; ev = Chaos.Stall { victim = 0 } };
          { Chaos.at = 3; ev = Chaos.Storage_window { mode = 1; salt = 99 } };
          { Chaos.at = 4; ev = Chaos.Replica_destroy { home = 3; replica = 0 } };
          {
            Chaos.at = 5;
            ev = Chaos.Replica_corrupt { home = 1; replica = 1; file = 0; salt = 7 };
          };
          { Chaos.at = 6; ev = Chaos.Cache_destroy { replica = 0 } };
          {
            Chaos.at = 7;
            ev = Chaos.Cache_corrupt { replica = 1; file = 1; salt = 8 };
          };
          { Chaos.at = 8; ev = Chaos.Split_brain { victim = 1 } };
        ]
      in
      let t =
        {
          Repro.config = Chaos.smoke_config;
          schedule;
          invariant = "no-stale-epoch-accepted";
          fence_enforced = false;
        }
      in
      check_bool "of_text inverts to_text" true
        (Repro.of_text (Repro.to_text t) = t);
      let d = fresh_dir () in
      Unix.mkdir d 0o755;
      let path = Filename.concat d "x.repro" in
      Repro.save t ~path;
      check_bool "save/load round-trips" true (Repro.load ~path = t);
      (match Repro.of_text "hg-chaos-repro v2\ninvariant x\n" with
      | _ -> Alcotest.fail "a version mismatch must be rejected"
      | exception Failure _ -> ());
      match Repro.of_text (Repro.to_text t ^ "event at=9 meteor-strike\n") with
      | _ -> Alcotest.fail "an unknown event kind must be rejected"
      | exception Failure _ -> ())

let chaos_shrinker_minimizes_fence_bug =
  test "ddmin shrinks a fence-bug campaign to a tiny deterministic repro"
    (fun () ->
      let cfg = { Chaos.smoke_config with Chaos.homes = 6; Chaos.steps = 80 } in
      let failing =
        {
          Repro.config = cfg;
          schedule = Chaos.schedule_of_config cfg;
          invariant = "cache-no-stale-epoch-byte";
          fence_enforced = false;
        }
      in
      let repro, trials = Repro.shrink ~dir:(fresh_dir ()) failing in
      check_bool "the schedule shrank" true
        (List.length repro.Repro.schedule < List.length failing.Repro.schedule);
      check_int "minimal repro is one event" 1 (List.length repro.Repro.schedule);
      check_bool "the shrinker ran trial campaigns" true (trials > 1);
      check_bool "only the schedule changed" true
        ({ repro with Repro.schedule = failing.Repro.schedule } = failing);
      (* the minimized schedule replays deterministically: two buggy
         runs violate identically, and an enforced run passes *)
      let r1 = Repro.replay repro ~dir:(fresh_dir ()) in
      let r2 = Repro.replay repro ~dir:(fresh_dir ()) in
      check_bool "both replays reproduce the violation" true
        (Repro.reproduces r1 repro && Repro.reproduces r2 repro);
      check_int "identical workloads" r1.Chaos.tally.Chaos.ops r2.Chaos.tally.Chaos.ops;
      check_bool "identical invariant verdicts" true
        (List.map (fun (i : Chaos.invariant) -> (i.Chaos.name, i.Chaos.ok))
           r1.Chaos.invariants
        = List.map (fun (i : Chaos.invariant) -> (i.Chaos.name, i.Chaos.ok))
            r2.Chaos.invariants);
      let fixed =
        Repro.replay { repro with Repro.fence_enforced = true } ~dir:(fresh_dir ())
      in
      check_bool "the same schedule passes with the fence enforced" true
        (Chaos.passed fixed))

let read_repro name =
  let ic = open_in_bin (Filename.concat "repros" name) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let checked_in_repros_replay =
  test "checked-in minimized repros reproduce, and the fix holds" (fun () ->
      List.iter
        (fun name ->
          let path = Filename.concat "repros" name in
          let repro = Repro.load ~path in
          Alcotest.(check string)
            (name ^ " re-renders byte for byte")
            (read_repro name) (Repro.to_text repro);
          check_bool (name ^ " is minimized") true
            (List.length repro.Repro.schedule <= 3);
          let bug = Repro.replay repro ~dir:(fresh_dir ()) in
          check_bool (name ^ " reproduces as recorded") true
            (Repro.reproduces bug repro);
          let fixed =
            Repro.replay { repro with Repro.fence_enforced = true } ~dir:(fresh_dir ())
          in
          check_bool (name ^ " passes with the fence enforced") true
            (Chaos.passed fixed))
        [ "split-brain-home-journal.repro"; "split-brain-vcache.repro" ])

let repro_names = [ "split-brain-home-journal.repro"; "split-brain-vcache.repro" ]

let rejects_with text msg =
  match Repro.of_text text with
  | _ -> Alcotest.failf "accepted, expected %S" msg
  | exception Failure got -> Alcotest.(check string) "parser error" msg got

(* A negative event field reached [Supervisor.kill]'s array index (and
   [List.nth], [lseek]) and ended the replay in an uncaught
   Invalid_argument; a zero count failed [Chaos.run]'s argument check
   the same way. The parser rejects both, on the offending line. *)
let repro_rejects_negative_fields =
  test "repro parser rejects negative event fields and zero counts" (fun () ->
      let home = read_repro "split-brain-home-journal.repro" in
      rejects_with (home ^ "event at=3 kill victim=-1\n")
        "repro line 6: field victim is negative";
      List.iter
        (fun (event, field) ->
          rejects_with
            (home ^ "event at=3 " ^ event ^ "\n")
            (Printf.sprintf "repro line 6: field %s is negative" field))
        [
          ("stall victim=-2", "victim");
          ("split-brain victim=-1", "victim");
          ("storage-window mode=-1 salt=4", "mode");
          ("storage-window mode=1 salt=-4", "salt");
          ("replica-destroy home=-1 replica=0", "home");
          ("replica-destroy home=1 replica=-1", "replica");
          ("replica-corrupt home=1 replica=0 file=-1 salt=3", "file");
          ("replica-corrupt home=1 replica=0 file=1 salt=-3", "salt");
          ("cache-destroy replica=-1", "replica");
          ("cache-corrupt replica=0 file=0 salt=-9", "salt");
          ("kill victim=-0x1", "victim");
        ];
      rejects_with (home ^ "event at=-3 kill victim=1\n")
        "repro line 6: field at is negative";
      let lines = String.split_on_char '\n' home in
      let config = List.nth lines 3 in
      let with_field field value =
        let config' =
          String.concat " "
            (List.map
               (fun tok ->
                 if String.starts_with ~prefix:(field ^ "=") tok then field ^ "=" ^ value
                 else tok)
               (String.split_on_char ' ' config))
        in
        String.concat "\n" (List.map (fun l -> if l == config then config' else l) lines)
      in
      List.iter
        (fun field ->
          rejects_with (with_field field "0")
            (Printf.sprintf "repro line 4: field %s must be at least 1" field))
        [ "shards"; "homes"; "steps"; "replicas" ];
      (* a zero or negative step-ms ended the replay in Health.create's
         Invalid_argument, and nan left a killed shard down for good
         while the campaign passed: the one-value settings take only the
         value every campaign runs with *)
      List.iter
        (fun (field, value, expected) ->
          rejects_with (with_field field value)
            (Printf.sprintf "repro line 4: field %s must be %s" field expected))
        [
          ("step-ms", "0", "50");
          ("step-ms", "-50", "50");
          ("step-ms", "nan", "50");
          ("step-ms", "inf", "50");
          ("split-brains", "2", "1");
        ])

(* Every repro [of_text] accepts can be replayed: event fields index
   nothing out of range and the counts are positive. *)
let replayable (t : Repro.t) =
  let c = t.Repro.config in
  c.Chaos.shards >= 1 && c.Chaos.homes >= 1 && c.Chaos.steps >= 1 && c.Chaos.replicas >= 1
  && List.for_all
       (fun { Chaos.at; ev } ->
         at >= 0
         && List.for_all
              (fun n -> n >= 0)
              (match ev with
              | Chaos.Kill { victim } | Chaos.Stall { victim } | Chaos.Split_brain { victim } ->
                [ victim ]
              | Chaos.Storage_window { mode; salt } -> [ mode; salt ]
              | Chaos.Replica_destroy { home; replica } -> [ home; replica ]
              | Chaos.Replica_corrupt { home; replica; file; salt } ->
                [ home; replica; file; salt ]
              | Chaos.Cache_destroy { replica } -> [ replica ]
              | Chaos.Cache_corrupt { replica; file; salt } -> [ replica; file; salt ]))
       t.Repro.schedule

(* The totality law: [of_text] returns a replayable repro or raises
   [Failure], whatever the bytes. *)
let total text =
  match Repro.of_text text with
  | t -> replayable t
  | exception Failure _ -> true
  | exception e ->
    Printf.eprintf "of_text raised %s on %S\n" (Printexc.to_string e) text;
    false

let prop_repro_bytes_total =
  QCheck.Test.make ~count:1000 ~name:"repro parsing is total on arbitrary bytes"
    QCheck.(string_gen_of_size (Gen.int_range 0 512) Gen.char)
    total

(* Splices of the format's own lines and tokens reach past the version
   check, which arbitrary bytes almost never do. *)
let prop_repro_splices_total =
  let tokens =
    [|
      "hg-chaos-repro v1"; "\n"; " "; "="; "#"; "invariant"; "fence-enforced";
      "config"; "event"; "at=3"; "at=-1"; "kill"; "stall"; "storage-window";
      "replica-destroy"; "replica-corrupt"; "cache-destroy"; "cache-corrupt";
      "split-brain"; "victim=1"; "victim=-1"; "home=-2"; "replica=0"; "file=1";
      "mode=-3"; "salt=7"; "seed=1"; "shards=0"; "homes=2"; "steps=-5";
      "replicas=0"; "step-ms=nan"; "vcache=maybe"; "true"; "false"; "x=";
      "=y"; "\xff"; "\x00"; "99999999999999999999";
    |]
  in
  QCheck.Test.make ~count:1000 ~name:"repro parsing is total on token splices"
    QCheck.(
      make ~print:(Printf.sprintf "%S")
        Gen.(list_size (int_range 0 60) (oneofa tokens) >|= String.concat ""))
    total

(* Every single-line deletion and every single-token mutation of the
   checked-in repros. *)
let repro_mutations_total =
  test "repro parsing is total on line deletions and token mutations" (fun () ->
      let mutants tok =
        let key, value =
          match String.index_opt tok '=' with
          | Some i -> (String.sub tok 0 (i + 1), String.sub tok (i + 1) (String.length tok - i - 1))
          | None -> (tok, "")
        in
        [ ""; "="; "x"; "-1"; tok ^ tok; key; "=" ^ value ]
        @ List.map (fun v -> key ^ v)
            [ "-1"; "0"; "-0"; "1"; "x"; ""; "nan"; "inf"; "99999999999999999999"; "0x7"; "1_0" ]
      in
      let cases = ref 0 and violations = ref 0 in
      let check text =
        incr cases;
        if not (total text) then incr violations
      in
      List.iter
        (fun name ->
          let lines = String.split_on_char '\n' (read_repro name) in
          List.iteri
            (fun i line ->
              check (String.concat "\n" (List.filteri (fun j _ -> j <> i) lines));
              let toks = String.split_on_char ' ' line in
              List.iteri
                (fun k tok ->
                  List.iter
                    (fun m ->
                      let line' =
                        String.concat " " (List.mapi (fun j t -> if j = k then m else t) toks)
                      in
                      check
                        (String.concat "\n"
                           (List.mapi (fun j l -> if j = i then line' else l) lines)))
                    (mutants tok))
                toks)
            lines)
        repro_names;
      check_bool "hundreds of mutants" true (!cases > 500);
      check_int "no uncaught exception, no unreplayable repro" 0 !violations)

(* -- synthetic homes ---------------------------------------------------------- *)

let synth_deterministic =
  test "the same seed reproduces the same fleet byte-for-byte" (fun () ->
      let a = Corpus.synth ~seed:9 ~n_homes:200 in
      let b = Corpus.synth ~seed:9 ~n_homes:200 in
      check_int "200 homes" 200 (List.length a);
      check_bool "identical" true (a = b);
      let c = Corpus.synth ~seed:10 ~n_homes:200 in
      check_bool "a different seed differs" true (a <> c);
      let ids = List.map (fun h -> h.Synth.id) a in
      check_int "ids are distinct" 200 (List.length (List.sort_uniq compare ids));
      List.iter
        (fun h ->
          if h.Synth.apps = [] then Alcotest.failf "home %s has no apps" h.Synth.id;
          let names = List.map (fun e -> e.App_entry.name) h.Synth.apps in
          if List.length (List.sort_uniq compare names) <> List.length names then
            Alcotest.failf "home %s repeats an app" h.Synth.id)
        a)

let synth_bounds =
  test "generator bounds: app cap respected, bad inputs rejected" (fun () ->
      let homes = Corpus.synth ~seed:3 ~n_homes:50 in
      List.iter
        (fun h ->
          check_bool "app cap" true (List.length h.Synth.apps <= 8))
        homes;
      check_bool "zero homes is fine" true (Corpus.synth ~seed:1 ~n_homes:0 = []);
      (match Corpus.synth ~seed:1 ~n_homes:(-1) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "negative count must be rejected");
      match Synth.generate ~pool:[] ~seed:1 ~n_homes:1 () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "an empty pool must be rejected")

(* -- on-disk layout ----------------------------------------------------------- *)

let safe_byte = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> true
  | _ -> false

(* Regression: every byte outside [A-Za-z0-9_-] used to become '.', so
   "a b", "a.b" and "a/b" all shared the directory h_a.b. *)
let home_dirs_are_injective =
  test "distinct home ids map to distinct directories" (fun () ->
      let fleet_dir = "root" in
      let primary id = List.hd (Shard.home_dirs ~fleet_dir ~replicas:1 id) in
      let alphabet = [| 'a'; 'b'; '0'; '_'; '-'; '.'; ' '; '/'; '%'; '\x80'; '\xff'; '\x00' |] in
      let st = Random.State.make [| 24 |] in
      let seen = Hashtbl.create 4096 in
      let ids =
        [ "a b"; "a.b"; "a/b"; "a.2eb"; "a.20b"; ""; "."; ".."; "h_x"; "\xc3\xa9" ]
        @ List.init 3000 (fun _ ->
              String.init (Random.State.int st 7) (fun _ ->
                  alphabet.(Random.State.int st (Array.length alphabet))))
      in
      List.iter
        (fun id ->
          let dir = primary id in
          check_bool "directly under the fleet root" true
            (Filename.dirname dir = fleet_dir);
          let name = Filename.basename dir in
          String.iteri
            (fun i c ->
              if not (safe_byte c || c = '.') then
                Alcotest.failf "%S: byte %d of %S is not filesystem-safe" id i name)
            name;
          match Hashtbl.find_opt seen dir with
          | Some other when other <> id ->
            Alcotest.failf "%S and %S share the directory %s" other id dir
          | _ -> Hashtbl.replace seen dir id)
        ids;
      (* ids made only of safe bytes keep the directories they had *)
      List.iter
        (fun id ->
          check_bool (id ^ " keeps its layout") true
            (Shard.home_dirs ~fleet_dir ~replicas:2 id
            = [ Filename.concat fleet_dir ("h_" ^ id);
                Filename.concat (Filename.concat fleet_dir "r1") ("h_" ^ id) ]))
        [ "h0000"; "h0042"; "alpha"; "Home_1-b"; "x" ])

let homes_with_colliding_old_names_stay_apart =
  test "homes \"a b\" and \"a.b\" keep their own decisions across a reopen"
    (fun () ->
      let clock, _ = manual_clock () in
      let dir = fresh_dir () in
      let homes = [ "a b"; "a.b" ] in
      let decide = [ ("a b", Policy.Confirm); ("a.b", Policy.Allow) ] in
      let open_fleet () =
        Supervisor.create ~config:(sup_config ~clock ()) ~dir ~homes ()
      in
      let t = open_fleet () in
      List.iter
        (fun (id, d) ->
          match
            Supervisor.run t ~home:id (fun sh ->
                Home.set_decision (Broker.home (Shard.broker sh) id) "T#1" d)
          with
          | Supervisor.Done _ -> ()
          | _ -> Alcotest.failf "home %S must take its decision" id)
        decide;
      Supervisor.close t;
      let t = open_fleet () in
      List.iter
        (fun (id, d) ->
          match
            Supervisor.run t ~home:id (fun sh ->
                List.assoc_opt "T#1"
                  (Policy.decisions
                     (Homeguard_frontend.Install_flow.policies
                        (Home.flow (Broker.home (Shard.broker sh) id)))))
          with
          | Supervisor.Done { value = Some got; _ } ->
            check_bool (id ^ " keeps its own decision") true (got = d)
          | Supervisor.Done { value = None; _ } ->
            Alcotest.failf "home %S lost its decision" id
          | _ -> Alcotest.failf "home %S must serve after the reopen" id)
        decide;
      Supervisor.close t)

let () =
  Alcotest.run "homeguard-fleet"
    [
      ( "breaker",
        [
          breaker_trips_at_threshold;
          breaker_half_open_probes;
          breaker_probe_failure_reopens;
          breaker_begin_probing;
        ] );
      ("health", [ health_missed_beats ]);
      ( "supervisor",
        [
          supervisor_restart_preserves_state;
          supervisor_rebalance_on_dead_shard;
          supervisor_stall_detection;
          crashed_reply_carries_retry_hint;
          drain_hints_as_run_does;
          wedged_shard_is_fenced;
          supervisor_scrub_converges;
          dead_shards_refuse_only_their_homes;
        ] );
      ("chaos",
        [
          chaos_smoke_campaign;
          chaos_cache_invariants;
          chaos_is_deterministic;
          chaos_ignores_fleet_root_name;
        ]);
      ( "cache-durability",
        [ vcache_zombie_probe_never_lands; cache_scrub_patches_frames ] );
      ( "repro",
        [
          repro_round_trip;
          chaos_shrinker_minimizes_fence_bug;
          checked_in_repros_replay;
          repro_rejects_negative_fields;
          repro_mutations_total;
          QCheck_alcotest.to_alcotest ~long:false prop_repro_bytes_total;
          QCheck_alcotest.to_alcotest ~long:false prop_repro_splices_total;
        ] );
      ("synth", [ synth_deterministic; synth_bounds ]);
      ( "layout",
        [ home_dirs_are_injective; homes_with_colliding_old_names_stay_apart ] );
    ]
