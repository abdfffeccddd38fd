// Package apiserver simulates the four web APIs the paper crawls —
// AngelList, CrunchBase, the Facebook Graph API and the Twitter REST API —
// as net/http handlers over a generated ecosystem.World.
//
// The simulation reproduces the access patterns that shaped the paper's
// collection pipeline:
//
//   - AngelList only lists the ~4,000 currently-raising startups, so the
//     crawler must BFS through follower edges to discover the rest.
//   - Every service requires a bearer access token.
//   - Twitter enforces a fixed window of 180 calls per 15 minutes per
//     token (HTTP 429 + Retry-After beyond it), which the paper defeats by
//     rotating tokens across machines.
//   - CrunchBase supports lookup by URL and search by name; name search
//     can return multiple results, and the crawler may only use unique
//     matches.
//   - Endpoints are paginated, and a seeded fault schedule (FaultConfig)
//     injects 5xx errors, 429 bursts, slow responses, truncated bodies
//     and connection resets to exercise crawler retries.
//
// The handlers never expose the *World to callers; crawlers learn about
// the world exclusively through JSON responses, exactly like the real
// crawlers.
package apiserver
