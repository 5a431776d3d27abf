(** Rule recorder: the per-home history of installed apps' rules.

    The threat detector's rule recorder "keeps track of the historical
    rule information of apps" (paper §IV-C); whenever a new app is
    installed only the new-vs-installed pairs need to be examined. *)

type t = { mutable apps : Rule.smartapp list  (** newest first *) }

let create () = { apps = [] }

(** Record a newly installed app. *)
let install db app = db.apps <- app :: db.apps

(** Remove an app by name (user decided against keeping it). *)
let uninstall db name = db.apps <- List.filter (fun a -> a.Rule.name <> name) db.apps

let installed_apps db = List.rev db.apps
let mem db name = List.exists (fun a -> a.Rule.name = name) db.apps
