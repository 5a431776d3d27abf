(** Variable stores: typed domains for solver variables.

    The rules layer populates a store from capability attribute domains
    (e.g. ["tv1.switch"] gets [{on, off}]) and from configuration values;
    {!infer} then closes the store over a formula's remaining free
    variables — numeric by default, enum when only ever compared against
    string constants (with a sentinel extra value so Neq stays
    satisfiable). *)

module SMap = Map.Make (String)

type t = Domain.t SMap.t

let empty : t = SMap.empty
let add = SMap.add
let of_list l = List.fold_left (fun m (k, v) -> SMap.add k v m) SMap.empty l
let find_opt = SMap.find_opt
let bindings = SMap.bindings
let mem = SMap.mem

(** Default bounds for untyped numeric variables (user thresholds,
    sensor readings without a capability domain). *)
let default_int_lo = -1_000_000
let default_int_hi = 1_000_000

(** Sentinel enum value: "some value other than the constants mentioned". *)
let other_value = "__other__"

(* What one walk over a formula learns about a free variable: whether
   it is ever used arithmetically or ordered (=> numeric), and the
   string constants it is compared against, where a variable-variable
   equality notes ["__join__" ^ other] so joined enum variables share
   their universes. *)
type var_info = {
  name : string;
  mutable numeric : bool;
  mutable universe : string list;
}

let join_prefix = "__join__"

(** [infer store f] extends [store] with domains for every free variable
    of [f] not already typed. *)
let infer store f =
  let infos = ref [] in
  let info v =
    match List.find_opt (fun i -> String.equal i.name v) !infos with
    | Some i -> i
    | None ->
      let i = { name = v; numeric = false; universe = [] } in
      infos := i :: !infos;
      i
  in
  let note v s =
    let i = info v in
    if not (List.mem s i.universe) then i.universe <- s :: i.universe
  in
  (* [numeric] marks every variable of the term; otherwise it only
     registers them as free *)
  let rec vars ~numeric = function
    | Term.Int _ | Term.Str _ -> ()
    | Term.Var v ->
      let i = info v in
      if numeric then i.numeric <- true
    | Term.Add (a, b) | Term.Sub (a, b) | Term.Mul (a, b) ->
      vars ~numeric a;
      vars ~numeric b
    | Term.Neg a -> vars ~numeric a
  in
  let is_arith = function
    | Term.Add _ | Term.Sub _ | Term.Mul _ | Term.Neg _ -> true
    | Term.Int _ | Term.Str _ | Term.Var _ -> false
  in
  let rec go = function
    | Formula.True | Formula.False -> ()
    | Formula.Atom (cmp, a, b) -> (
      (* ordering implies numeric on both sides, as does arithmetic *)
      let ordered =
        match cmp with
        | Formula.Lt | Formula.Le | Formula.Gt | Formula.Ge -> true
        | Formula.Eq | Formula.Neq -> false
      in
      vars ~numeric:(ordered || is_arith a) a;
      vars ~numeric:(ordered || is_arith b) b;
      match (a, b) with
      (* equality against an int constant implies numeric *)
      | Term.Var v, Term.Int _ | Term.Int _, Term.Var v -> (info v).numeric <- true
      | Term.Var v, Term.Str s | Term.Str s, Term.Var v -> note v s
      | Term.Var v1, Term.Var v2 ->
        note v1 (join_prefix ^ v2);
        note v2 (join_prefix ^ v1)
      | _ -> ())
    | Formula.And fs | Formula.Or fs -> List.iter go fs
    | Formula.Not f -> go f
  in
  go f;
  (* A variable's enum universe: the constants noted on every variable
     its __join__ links reach. *)
  let resolve v =
    let seen = ref [] in
    let rec go v acc =
      if List.mem v !seen then acc
      else begin
        seen := v :: !seen;
        let entries =
          match List.find_opt (fun i -> String.equal i.name v) !infos with
          | Some i -> i.universe
          | None -> []
        in
        List.fold_left
          (fun acc s ->
            let n = String.length join_prefix in
            if String.length s > n && String.starts_with ~prefix:join_prefix s then
              go (String.sub s n (String.length s - n)) acc
            else if List.mem s acc then acc
            else s :: acc)
          acc entries
      end
    in
    go v []
  in
  List.fold_left
    (fun store i ->
      if mem i.name store then store
      else if i.numeric then add i.name (Domain.interval default_int_lo default_int_hi) store
      else
        match resolve i.name with
        | [] -> add i.name (Domain.interval default_int_lo default_int_hi) store
        | consts -> add i.name (Domain.enums (other_value :: consts)) store)
    store !infos
