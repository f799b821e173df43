//===- persist/CacheGc.cpp - Size-capped cache-directory GC ---------------===//

#include "persist/CacheGc.h"

#include <algorithm>
#include <sys/stat.h>
#include <system_error>
#include <tuple>
#include <vector>

using namespace syntox;
using namespace syntox::persist;

namespace fs = std::filesystem;

namespace {

bool isWarmFile(const fs::path &P) {
  return P.extension() == ".warm" &&
         P.filename().string().rfind("syntox-", 0) == 0;
}

} // namespace

CacheTree::CacheTree(const std::string &Dir)
    : Root(fs::path(Dir).lexically_normal()) {
  if (!Root.has_filename() && Root.has_relative_path())
    Root = Root.parent_path(); // "dir/" names the same tree as "dir"
}

bool CacheTree::statEntry(Entry &E) {
  struct stat St;
  if (::stat(E.Warm.c_str(), &St) != 0 || !S_ISREG(St.st_mode))
    return false;
  E.Inode = St.st_ino;
  E.MTimeNs = static_cast<int64_t>(St.st_mtim.tv_sec) * 1000000000 +
              St.st_mtim.tv_nsec;
  E.Bytes = static_cast<uint64_t>(St.st_size);
  return true;
}

void CacheTree::add(Entry E) {
  Total += E.Bytes;
  auto It = Order.insert(Order.end(), std::move(E));
  ByPath[It->Warm.native()] = It;
}

CacheTree::List::iterator CacheTree::erase(List::iterator It) {
  Total -= It->Bytes;
  ByPath.erase(It->Warm.native());
  return Order.erase(It);
}

void CacheTree::rescan() {
  Order.clear();
  ByPath.clear();
  Total = 0;
  std::vector<Entry> Found;
  std::error_code EC; // a missing directory is an empty tree
  for (fs::recursive_directory_iterator
           It(Root, fs::directory_options::skip_permission_denied, EC),
       End;
       !EC && It != End; It.increment(EC)) {
    if (!isWarmFile(It->path()))
      continue;
    Entry E;
    E.Warm = It->path().lexically_normal();
    if (statEntry(E))
      Found.push_back(std::move(E));
  }
  // Oldest first; mtime ties broken by path for determinism.
  std::sort(Found.begin(), Found.end(), [](const Entry &A, const Entry &B) {
    return std::tie(A.MTimeNs, A.Warm) < std::tie(B.MTimeNs, B.Warm);
  });
  for (Entry &E : Found)
    add(std::move(E));
}

void CacheTree::touch(const std::string &WarmPath) {
  Entry E;
  E.Warm = fs::path(WarmPath).lexically_normal();
  fs::path Rel = E.Warm.lexically_relative(Root);
  if (Root.empty() || Rel.empty() || *Rel.begin() == ".." ||
      !isWarmFile(E.Warm))
    return;
  bool Present = statEntry(E);
  if (auto Known = ByPath.find(E.Warm.native()); Known != ByPath.end()) {
    if (Present && E == *Known->second)
      return; // unchanged since it was indexed: keeps its place
    erase(Known->second);
  }
  if (Present)
    add(std::move(E));
}

CacheGcResult CacheTree::shrinkTo(uint64_t MaxBytes) {
  CacheGcResult R;
  R.BytesBefore = Total;
  for (auto It = Order.begin(); It != Order.end() && Total > MaxBytes;) {
    // A save may have rewritten the victim since it was indexed (an
    // owner may save outside its lock on the index): it is then the
    // newest entry, not a victim.
    Entry Now;
    Now.Warm = It->Warm;
    if (statEntry(Now) && !(Now == *It)) {
      It = erase(It);
      add(std::move(Now));
      continue;
    }
    std::error_code EC;
    bool Removed = fs::remove(It->Warm, EC);
    if (EC) {
      ++It; // the entry survived: it keeps counting
      continue;
    }
    if (Removed) // else the file was already gone
      ++R.FilesRemoved;
    // Drop the directories this emptied, up to but excluding the root.
    for (fs::path D = It->Warm.parent_path(); !D.empty() && D != Root;
         D = D.parent_path())
      if (!fs::remove(D, EC))
        break;
    It = erase(It);
  }
  R.BytesAfter = Total;
  R.FilesKept = Order.size();
  return R;
}

CacheGcResult persist::gcCacheDir(const std::string &Dir,
                                  uint64_t MaxBytes) {
  CacheTree Tree(Dir);
  Tree.rescan();
  return Tree.shrinkTo(MaxBytes);
}
