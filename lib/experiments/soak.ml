let single_domain () = Par.Pool.set_size 1

type t = {
  dir : string;
  artifact : Store.t;
  mutable live : int list;  (* spawned, not yet reaped *)
}

type exit = Clean | Failed | Killed

let dir t = t.dir
let artifact_path t = Filename.concat t.dir "artifact.psa"
let addr t = Serve.Unix_sock (Filename.concat t.dir "s.sock")

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> (try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let reap t pid =
  t.live <- List.filter (( <> ) pid) t.live;
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  match wait () with
  | Unix.WEXITED 0 -> Clean
  | Unix.WSIGNALED s when s = Sys.sigkill -> Killed
  | _ -> Failed

let artifact ~fingerprint ~eps setup sel =
  let pool = setup.Core.Pipeline.pool in
  Store.of_selection ~fingerprint ~n_segments:(Timing.Paths.num_segments pool)
    ~t_cons:setup.Core.Pipeline.t_cons ~eps ~a:(Timing.Paths.a_mat pool)
    ~mu:(Timing.Paths.mu_paths pool) sel

let with_session artifact f =
  let dir = Filename.temp_file "pathsel-soak" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let t = { dir; artifact; live = [] } in
  let cleanup () =
    List.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (reap t pid) with Unix.Unix_error _ -> ())
      t.live;
    rm_rf dir
  in
  Fun.protect ~finally:cleanup (fun () ->
      (match Store.save (artifact_path t) artifact with
       | Ok () -> ()
       | Error e -> Core.Errors.raise_error e);
      f t)

let spawn ?config ?reload_from t =
  flush_all ();
  match Unix.fork () with
  | 0 ->
    (match Serve.run ?config ?reload_from t.artifact (addr t) with
     | () -> Unix._exit 0
     | exception _ -> Unix._exit 1)
  | pid ->
    t.live <- pid :: t.live;
    pid

let connect t = Serve.Client.connect ~retries:100 (addr t)

let drain t =
  match connect t with
  | conn ->
    Serve.Client.shutdown conn;
    Serve.Client.close conn
  | exception (Unix.Unix_error _ | Serve.Io.Timeout) -> () (* already gone *)

let write ?(oc = stdout) ?out experiment fields =
  match out with
  | None -> ()
  | Some path ->
    Core.Report.write_file path
      (Core.Report.Obj
         ((("experiment", Core.Report.String experiment) :: Host.fields ()) @ fields));
    Printf.fprintf oc "wrote %s\n%!" path

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let int_stat resp key =
  match Serve.Wire.member key resp with Some (Serve.Wire.Int n) -> n | _ -> 0

let int_member resp key =
  match Serve.Wire.member key resp with Some (Serve.Wire.Int n) -> n | _ -> min_int

let float_member resp key =
  match Serve.Wire.member key resp with
  | Some (Serve.Wire.Float x) -> x
  | Some (Serve.Wire.Int n) -> float_of_int n
  | _ -> Float.nan

let string_member resp key =
  match Serve.Wire.member key resp with Some (Serve.Wire.String s) -> s | _ -> ""
