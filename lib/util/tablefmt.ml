type line = Row of string list | Sep

type t = { headers : string list; mutable lines : line list }

let create headers = { headers; lines = [] }

let row t cells = t.lines <- Row cells :: t.lines

let sep t = t.lines <- Sep :: t.lines

let is_numeric s =
  s <> ""
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '+'
                 || c = '%' || c = ',' || c = 'e' || c = 'x')
       s

let print ?(oc = stdout) t =
  let lines = List.rev t.lines in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  let measure cells =
    List.iteri
      (fun i c -> if i < ncols && String.length c > widths.(i) then widths.(i) <- String.length c)
      cells
  in
  measure t.headers;
  List.iter (function Row cells -> measure cells | Sep -> ()) lines;
  let pad i c =
    let w = widths.(i) in
    let n = w - String.length c in
    if n <= 0 then c
    else if is_numeric c then String.make n ' ' ^ c
    else c ^ String.make n ' '
  in
  let hline () =
    output_string oc "+";
    Array.iter (fun w -> output_string oc (String.make (w + 2) '-'); output_string oc "+") widths;
    output_string oc "\n"
  in
  let emit cells =
    let cells = cells @ List.init (max 0 (ncols - List.length cells)) (fun _ -> "") in
    output_string oc "|";
    List.iteri
      (fun i c -> if i < ncols then (output_string oc (" " ^ pad i c ^ " "); output_string oc "|"))
      cells;
    output_string oc "\n"
  in
  hline ();
  emit t.headers;
  hline ();
  List.iter (function Row cells -> emit cells | Sep -> hline ()) lines;
  hline ();
  flush oc

let ns v =
  if v < 1_000.0 then Printf.sprintf "%.0f ns" v
  else if v < 1_000_000.0 then Printf.sprintf "%.2f us" (v /. 1e3)
  else if v < 1_000_000_000.0 then Printf.sprintf "%.2f ms" (v /. 1e6)
  else Printf.sprintf "%.2f s" (v /. 1e9)

let ns_i v = ns (float_of_int v)

let bytes n =
  let f = float_of_int n in
  if f < 1024.0 then Printf.sprintf "%d B" n
  else if f < 1024.0 *. 1024.0 then Printf.sprintf "%.1f KB" (f /. 1024.0)
  else if f < 1024.0 *. 1024.0 *. 1024.0 then Printf.sprintf "%.1f MB" (f /. 1048576.0)
  else Printf.sprintf "%.2f GB" (f /. 1073741824.0)

let f1 v = Printf.sprintf "%.1f" v

let f2 v = Printf.sprintf "%.2f" v

let pct v = Printf.sprintf "%.2f%%" v

let commas n =
  let s = string_of_int (abs n) in
  let len = String.length s in
  let b = Buffer.create (len + (len / 3)) in
  if n < 0 then Buffer.add_char b '-';
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char b ',';
      Buffer.add_char b c)
    s;
  Buffer.contents b
