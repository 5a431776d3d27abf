(** Seeded synthetic-home generator for fleet-scale benches and chaos
    campaigns: heavy-tailed app subsets of the audit pool plus
    configuration-URI bindings, fully determined by the seed. *)

type home = {
  id : string;
  apps : App_entry.t list;  (** distinct; install order *)
  configs : string list;
      (** configuration URIs ([http://my.com/appname:...]) in delivery
          order *)
}

val generate : pool:App_entry.t list -> seed:int -> n_homes:int -> unit -> home list
(** [generate ~pool ~seed ~n_homes ()] is deterministic in [seed]: the
    same seed yields byte-identical homes. [Corpus.synth] applies the
    standard pool ({!Corpus.audit_apps}); a home holds at most 8 apps.
    @raise Invalid_argument on a negative count or an empty pool. *)
