(** Depth-first symbolic execution of SmartApp statements (paper §V-B):
    branches split the path, sinks become actions, [subscribe]/
    scheduling calls become triggers. *)

module Rule = Homeguard_rules.Rule

type subscription = {
  sub_subject : Rule.subject;
  sub_attribute : string;
  sub_value : string option;  (** ["switch.on"]-style subscription value *)
  sub_handler : string;
}

type schedule = {
  sched_handler : string;
  sched_at : int option;
  sched_period : int option;
}

type ctx = {
  prog : Homeguard_groovy.Ast.program;
  inputs : Rule.input_decl list;
  subs : subscription list ref;
  schedules : schedule list ref;
  fresh_counter : int ref;
  unknown_calls : string list ref;
  paths : int ref;
  in_setup : bool;
}

exception Path_budget
(** The per-handler exploration budget (512 paths) was exhausted. *)

val bind_inputs : ctx -> Symval.state -> Symval.state
(** Bind every declared input as a symbolic source. *)

val exec_stmts :
  ctx -> Symval.state -> Homeguard_groovy.Ast.stmt list -> Symval.state list
(** Execute a statement list; the result list is the final state of
    every explored path. *)
