(* Span recorder for the traced run.

   Spans are taken in the benchmark's own code, around calls into one
   layer's public functions, and kept in memory; [write] dumps them when
   the run ends. Recording is off unless [enable] was called, so the
   untraced run pays one branch per span. The recorder is
   single-threaded: the benchmark process never records from two
   threads. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  name : string;
  op : int;  (** the op the span belongs to; negative for set-up work *)
  parent : int;  (** id of the enclosing span, -1 at top level *)
  start_s : float;
  stop_s : float;
}

let on = ref false
let spans : span list ref = ref []
let counts : (string * int * float) list ref = ref []
let next_id = ref 0
let parent = ref (-1)
let op = ref 0

let set_enabled b = on := b

let reset () =
  on := false;
  spans := [];
  counts := [];
  next_id := 0;
  parent := -1;
  op := 0
let set_op n = op := n

let span name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let up = !parent in
    parent := id;
    let start_s = now () in
    let finish () =
      spans := { id; name; op = !op; parent = up; start_s; stop_s = now () } :: !spans;
      parent := up
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* counts are recorded at the same boundaries as spans, per op *)
let count name v = if !on then counts := (name, !op, v) :: !counts

let duration s = s.stop_s -. s.start_s

(* Self time: the span's duration minus the time its direct children
   cover. Children of one span never overlap (one recording thread), so
   that is a plain sum. *)
let self_times all =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    all;
  fun s -> duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)

(* Mean per op, in ms, of the time spent in spans named [name] over the
   ops [ops] (an op without such a span contributes 0). *)
let mean_ms ~ops name =
  match ops with
  | [] -> 0.0
  | _ ->
    let total =
      List.fold_left
        (fun acc s -> if s.name = name && List.mem s.op ops then acc +. duration s else acc)
        0.0 !spans
    in
    1000.0 *. total /. float_of_int (List.length ops)

(* Mean per op of a count. *)
let mean_count ~ops name =
  match ops with
  | [] -> 0.0
  | _ ->
    let total =
      List.fold_left
        (fun acc (n, o, v) -> if n = name && List.mem o ops then acc +. v else acc)
        0.0 !counts
    in
    total /. float_of_int (List.length ops)

let write path =
  let all = List.rev !spans in
  let self = self_times all in
  let t0 = match all with s :: _ -> s.start_s | [] -> 0.0 in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"spans\":[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start_ms\":%.6f,\
             \"end_ms\":%.6f,\"self_ms\":%.6f}\n"
            (if i = 0 then "" else ",")
            s.id s.name s.op s.parent
            (1000.0 *. (s.start_s -. t0))
            (1000.0 *. (s.stop_s -. t0))
            (1000.0 *. self s))
        all;
      output_string oc "],\"counts\":[\n";
      List.iteri
        (fun i (n, o, v) ->
          Printf.fprintf oc "%s{\"name\":%S,\"op\":%d,\"value\":%.17g}\n"
            (if i = 0 then "" else ",")
            n o v)
        (List.rev !counts);
      output_string oc "]}\n")
