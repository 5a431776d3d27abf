(** In-memory spans around the benchmark's calls into each layer.

    A span is [{id; parent; request; name; start_ns; end_ns}]: [parent]
    is the enclosing span (0 at the top), [request] the request it
    belongs to. Spans are kept in memory and written once, at exit. A
    span's self time is its duration minus the part of it that its
    children cover. *)

type span = {
  id : int;
  parent : int;
  request : int;
  name : string;
  start_ns : int64;
  end_ns : int64;
}

type t = {
  mutable on : bool;  (** record spans for the current request *)
  mutable request : int;
  mutable next_id : int;
  mutable stack : int list;
  mutable spans : span list;  (** most recent first *)
}

let create () = { on = false; request = 0; next_id = 1; stack = []; spans = [] }

(** Start request [id]; its spans are recorded only when [traced]. *)
let begin_request t ~traced id =
  t.on <- traced;
  t.request <- id

let with_span t name f =
  if not t.on then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> 0 in
    t.stack <- id :: t.stack;
    let start_ns = Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let end_ns = Clock.now_ns () in
        t.stack <- List.tl t.stack;
        t.spans <- { id; parent; request = t.request; name; start_ns; end_ns } :: t.spans)
      f
  end

(** [traced t name f] is [with_span] on an optional tracer. *)
let traced t name f = match t with Some t -> with_span t name f | None -> f ()

let spans t = List.rev t.spans
let duration s = Int64.sub s.end_ns s.start_ns

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, max cb b))
          else (Int64.add total (Int64.sub cb ca), Some (a, b)))
      (0L, None) sorted
  in
  match last with Some (a, b) -> Int64.add total (Int64.sub b a) | None -> total

(** Self time of every span, by id. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> Hashtbl.add children s.parent (s.start_ns, s.end_ns))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, Int64.sub (duration s) (covered ~lo:s.start_ns ~hi:s.end_ns kids)))
    spans

(** Total self time per span name, in ns. *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let prev = Option.value ~default:0L (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (Int64.add prev self))
    (self_times spans);
  tbl

(** Write the spans as a JSON array, one span per line. *)
let write_file path spans =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"id\": %d, \"parent\": %d, \"request\": %d, \"name\": \"%s\", \
             \"start_ns\": %Ld, \"end_ns\": %Ld}"
            (if i = 0 then "" else ",\n")
            s.id s.parent s.request
            (Homeguard_bench.Json.escape_string s.name)
            s.start_ns s.end_ns)
        spans;
      output_string oc "\n]\n")
